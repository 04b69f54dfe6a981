#include "src/runner/experiment.h"

#include "src/base/hash.h"

namespace demeter {
namespace {

void HashTierSpec(HashStream& h, const TierSpec& tier) {
  h.I32(static_cast<int>(tier.media))
      .F64(tier.read_latency_ns)
      .F64(tier.write_latency_ns)
      .F64(tier.read_bw_mbps)
      .F64(tier.write_bw_mbps)
      .U64(tier.capacity_bytes);
}

void HashMachineConfig(HashStream& h, const MachineConfig& config) {
  h.U64(config.tiers.size());
  for (const TierSpec& tier : config.tiers) {
    HashTierSpec(h, tier);
  }
  // capture_trace and check_invariants are deliberately NOT hashed: both
  // are pure observability and must not reseed (and thereby change) the
  // simulation they observe. Nor are the execution strategies (shards,
  // host_threads): results are identical for every value.
  h.U64(config.quantum).U64(config.batch_ops).U64(config.seed);
  // Faults DO change behaviour, so a non-empty plan folds its canonical
  // spec into the hash; the empty-plan hash is bit-identical to builds
  // that predate fault injection.
  if (!config.faults.empty()) {
    h.Str(config.faults.ToSpec());
  }
  // The far-tier knobs only exist on three-tier hosts (which already hash
  // differently through `tiers`), and overcommit only when enabled; gating
  // both keeps every pre-existing two-tier spec hash stable.
  if (static_cast<TierIndex>(config.tiers.size()) > kSwapTier) {
    h.U64(config.swap.queue_depth)
        .F64(config.swap.write_latency_ns)
        .F64(config.swap.read_latency_ns)
        .F64(config.swap.latency_jitter)
        .F64(config.swap.inflight_hit_ns)
        .I32(config.swap.max_retries)
        .U64(config.swap.seed);
  }
  if (config.overcommit.enabled) {
    h.Bool(config.overcommit.enabled)
        .F64(config.overcommit.ratio)
        .U64(config.overcommit.period_ns)
        .F64(config.overcommit.low_free_frac)
        .F64(config.overcommit.high_free_frac)
        .U64(config.overcommit.max_batch_pages);
  }
}

void HashDemeterConfig(HashStream& h, const DemeterConfig& d) {
  h.U64(d.range.epoch_length)
      .F64(d.range.alpha)
      .F64(d.range.split_threshold)
      .I32(d.range.merge_threshold)
      .U64(d.range.min_range_bytes)
      .U64(d.relocator.max_batch_pages)
      .U64(d.relocator.fmem_free_reserve_pages)
      .F64(d.relocator.demote_margin)
      .Bool(d.relocator.balanced_swap)
      .U64(d.sample_period)
      .F64(d.latency_threshold_ns)
      .F64(d.drain_ns_per_record)
      .F64(d.classify_ns_per_sample)
      .F64(d.classify_ns_per_range)
      .Bool(d.drain_on_context_switch)
      .U64(d.poll_period)
      .F64(d.poll_fixed_ns)
      .Bool(d.classify_virtual)
      .F64(d.translate_ns_per_sample);
  // Degradation only acts on faulted runs; hashing it only when customized
  // keeps every pre-existing spec hash stable.
  if (!d.degradation.IsDefault()) {
    h.Bool(d.degradation.enabled)
        .U64(d.degradation.unresponsive_after)
        .U64(d.degradation.watchdog_period)
        .U64(d.degradation.host_round_period)
        .U64(d.degradation.host_batch_pages);
  }
}

void HashVmSetup(HashStream& h, const VmSetup& setup) {
  // VmConfig: id/start_full/rng_seed are assigned by Machine::AddVm, so the
  // caller-controlled fields are the content.
  h.I32(setup.vm.num_vcpus)
      .U64(setup.vm.total_memory_bytes)
      .F64(setup.vm.fmem_ratio)
      .U64(setup.vm.context_switch_period)
      .F64(setup.vm.cache_hit_rate)
      .Bool(setup.vm.lazily_backed);
  h.Str(setup.workload)
      .U64(setup.footprint_bytes)
      .U64(setup.target_transactions)
      .I32(static_cast<int>(setup.policy))
      .I32(static_cast<int>(setup.provision))
      .U64(setup.policy_period)
      .U64(setup.timeline_bucket);
  // Lifecycle churn changes behaviour; hashing it only when set keeps every
  // pre-existing (boot-at-zero, never-departing) spec hash stable.
  if (setup.boot_at != 0 || setup.depart_on_finish) {
    h.U64(setup.boot_at).Bool(setup.depart_on_finish);
  }
  HashDemeterConfig(h, setup.demeter);
}

void HashClusterSetup(HashStream& h, const ClusterSetup& cluster) {
  h.I32(cluster.num_hosts)
      .U64(cluster.epoch)
      .I32(static_cast<int>(cluster.placement))
      .F64(cluster.placement_headroom);
  const MigrationConfig& m = cluster.migration;
  h.Bool(m.evacuate_on_shrink)
      .I32(m.max_precopy_rounds)
      .U64(m.stop_copy_pages)
      .F64(m.wire_ns_per_page)
      .I32(m.max_inflight)
      .I32(m.cooldown_epochs);
  // Retry and HA knobs postdate the first cluster baselines: hash them only
  // when changed so every pre-existing fleet spec keeps its seed.
  if (m.max_retries != MigrationConfig{}.max_retries ||
      m.retry_backoff_epochs != MigrationConfig{}.retry_backoff_epochs) {
    h.I32(m.max_retries).I32(m.retry_backoff_epochs);
  }
  if (!(cluster.ha == HaConfig{})) {
    const HaConfig& ha = cluster.ha;
    h.Bool(ha.restart)
        .I32(ha.restart_queue_limit)
        .I32(ha.restart_backoff_epochs)
        .I32(ha.restart_max_attempts)
        .I32(ha.quarantine_epochs);
  }
  h.U64(cluster.host_faults.size());
  for (const FaultPlan& plan : cluster.host_faults) {
    h.Str(plan.ToSpec());
  }
}

}  // namespace

uint64_t SpecContentHash(const ExperimentSpec& spec) {
  HashStream h;
  h.Str(spec.name).Str(spec.tag);
  HashMachineConfig(h, spec.config);
  h.U64(spec.vms.size());
  for (const VmSetup& setup : spec.vms) {
    HashVmSetup(h, setup);
  }
  // Cluster topology changes behaviour; hashing it only when non-default
  // keeps every pre-existing single-machine spec's seed bit-unchanged.
  if (!spec.cluster.IsDefault()) {
    HashClusterSetup(h, spec.cluster);
  }
  return h.Digest();
}

uint64_t DeriveSeed(const ExperimentSpec& spec) { return SpecContentHash(spec); }

double ExperimentResult::MeanElapsedSeconds() const {
  double total = 0.0;
  for (const VmRunResult& vm : vms) {
    total += vm.elapsed_s;
  }
  return vms.empty() ? 0.0 : total / static_cast<double>(vms.size());
}

double ExperimentResult::TotalMgmtCores() const {
  double total = 0.0;
  for (const VmRunResult& vm : vms) {
    total += vm.MgmtCores();
  }
  return total;
}

ExperimentResult RunExperiment(const ExperimentSpec& spec) {
  ExperimentResult result;
  result.spec = spec;
  result.seed = DeriveSeed(spec);

  MachineConfig config = spec.config;
  config.seed = result.seed;

  if (spec.cluster.num_hosts > 0) {
    Cluster cluster(config, spec.cluster);
    for (const VmSetup& setup : spec.vms) {
      cluster.AddVm(setup);
    }
    cluster.Run();
    result.vms.reserve(spec.vms.size());
    for (int i = 0; i < cluster.num_vms(); ++i) {
      result.vms.push_back(cluster.result(i));
    }
    // Single host: the snapshot is a bare machine's, so strip "host/" as
    // the classic path does. Multi-host: names are already fully scoped
    // ("host<h>/...", "cluster/..."), keep them verbatim.
    const MetricSnapshot snapshot = cluster.SnapshotMetrics();
    result.host_metrics = spec.cluster.num_hosts == 1
                              ? snapshot.FilterPrefix("host/", /*strip=*/true)
                              : snapshot;
    if (spec.config.capture_trace) {
      result.trace = cluster.TakeTrace();
    }
    result.ok = true;
    return result;
  }

  Machine machine(config);
  for (const VmSetup& setup : spec.vms) {
    machine.AddVm(setup);
  }
  machine.Run();

  result.vms.reserve(spec.vms.size());
  for (int i = 0; i < machine.num_vms(); ++i) {
    result.vms.push_back(machine.result(i));
  }
  result.host_metrics = machine.SnapshotMetrics().FilterPrefix("host/", /*strip=*/true);
  if (spec.config.capture_trace) {
    result.trace = machine.TakeTrace();
  }
  result.ok = true;
  return result;
}

}  // namespace demeter
