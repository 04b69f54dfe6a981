#include "perfbench/workloads.h"

#include <string>

#include "src/base/logging.h"

namespace demeter::perfbench {

namespace {

// Each policy's natural provisioning path (as in bench/overcommit_sweep):
// only Demeter has a double balloon to answer overcommit spill requests.
ProvisionMode NaturalProvision(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kDemeter:
      return ProvisionMode::kDemeterBalloon;
    case PolicyKind::kMemtis:
      return ProvisionMode::kVirtioBalloon;
    case PolicyKind::kDamon:
      return ProvisionMode::kHotplug;
    default:
      return ProvisionMode::kStatic;
  }
}

FaultPlan ParsePlan(const std::string& spec) {
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::Parse(spec, &error);
  DEMETER_CHECK(plan.has_value()) << "bad built-in fault spec '" << spec << "': " << error;
  return *plan;
}

VmSetup VmFor(const Scale& scale, const std::string& workload, PolicyKind policy) {
  VmSetup setup;
  setup.vm.total_memory_bytes = scale.vm_bytes;
  setup.vm.fmem_ratio = 0.2;
  setup.vm.num_vcpus = scale.vcpus;
  setup.workload = workload;
  setup.footprint_bytes = scale.footprint();
  setup.target_transactions = scale.TargetFor(workload);
  setup.policy = policy;
  setup.policy_period = scale.policy_period;
  setup.demeter.range.epoch_length = scale.demeter_epoch;
  setup.demeter.sample_period = scale.demeter_sample_period;
  setup.demeter.range.split_threshold = 4.0;
  setup.timeline_bucket = 25 * kMillisecond;
  return setup;
}

// Two-tier DRAM + PMem host for `num_vms` VMs: FMEM is each VM's 1:5 share
// plus 25% headroom, PMem is ample (2x every VM's memory).
MachineConfig TwoTierHost(const Scale& scale, int num_vms, uint64_t seed) {
  MachineConfig config;
  const uint64_t total = scale.vm_bytes * static_cast<uint64_t>(num_vms);
  config.tiers = {TierSpec::LocalDram(PageCeil(
                      static_cast<uint64_t>(static_cast<double>(total) * 0.2 * 1.25))),
                  TierSpec::Pmem(total * 2)};
  config.batch_ops = scale.batch_ops;
  config.seed = seed;
  return config;
}

// tier-read: the paper's core single-host comparison. Both workloads are
// read-only, every VM boots static, and nothing is overcommitted, so no
// balloon, swap, overcommit or cluster code runs.
std::vector<ExperimentSpec> TierRead(const Scale& scale, uint64_t seed) {
  std::vector<ExperimentSpec> specs;
  for (const PolicyKind policy : AllPolicies()) {
    ExperimentSpec spec;
    spec.name = std::string("tier-read/") + PolicyKindName(policy);
    spec.tag = PolicyKindName(policy);
    spec.config = TwoTierHost(scale, 4, seed);
    for (const char* workload : {"xsbench", "xsbench", "btree", "btree"}) {
      spec.vms.push_back(VmFor(scale, workload, policy));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

// overcommit-write: the same pipeline on the write path. A three-tier host
// (FMEM / PMem / zswap) at FMEM overcommit 1.5 with the overcommit
// scheduler on; read-modify-write workloads; natural provisioning; one VM
// boots late and one departs at its (halved) target.
std::vector<ExperimentSpec> OvercommitWrite(const Scale& scale, uint64_t seed) {
  constexpr int kVms = 4;
  constexpr double kRatio = 1.5;
  std::vector<ExperimentSpec> specs;
  for (const PolicyKind policy : AllPolicies()) {
    ExperimentSpec spec;
    spec.name = std::string("overcommit-write/") + PolicyKindName(policy);
    spec.tag = PolicyKindName(policy);
    spec.config = TwoTierHost(scale, kVms, seed);
    const double total = static_cast<double>(scale.vm_bytes * kVms);
    spec.config.tiers[0] =
        TierSpec::LocalDram(PageCeil(static_cast<uint64_t>(total * 0.2 * 1.25 / kRatio)));
    // PMem tighter than the usual 2x so spill reaches the far tier (at 0.6x
    // no page reaches it).
    spec.config.tiers[1] = TierSpec::Pmem(PageCeil(static_cast<uint64_t>(total * 0.55)));
    spec.config.tiers.push_back(TierSpec::Zswap(scale.vm_bytes * kVms));
    // With the default 64-deep writeback queue, stalls charged to TPP's
    // far demotions swing its management cores by over 5x from seed to
    // seed; a deep queue keeps the writeback path without that cliff.
    spec.config.swap.queue_depth = 1024;
    spec.config.overcommit.enabled = true;
    spec.config.overcommit.ratio = kRatio;
    for (const char* workload : {"silo", "silo", "gups", "gups"}) {
      VmSetup setup = VmFor(scale, workload, policy);
      setup.provision = NaturalProvision(policy);
      spec.vms.push_back(setup);
    }
    spec.vms[1].boot_at = 20 * kMillisecond;
    spec.vms[3].target_transactions /= 2;
    spec.vms[3].depart_on_finish = true;
    specs.push_back(std::move(spec));
  }
  return specs;
}

// fleet-ha: one 4-host cluster with mixed policies and workloads. Every
// fourth VM boots late and another quarter depart at their targets; even
// hosts run tiershrink windows (evacuations) while every host's outbound
// migrations may abort (migratefail). Host 2 fails at the first barrier
// and stays down for longer than the run: one hostfail window whose
// fencing, kills and restarts land the same way for every seed (a
// per-barrier failure probability made the kill count, and with it every
// fleet figure, swing from seed to seed). The other hosts never fail, so
// every killed VM has somewhere to restart and none is lost.
std::vector<ExperimentSpec> FleetHa(const Scale& scale, uint64_t seed) {
  constexpr int kHosts = 4;
  constexpr int kVms = 16;
  static const char* const kWorkloads[] = {"silo", "gups", "xsbench", "btree"};
  ExperimentSpec spec;
  spec.name = "fleet-ha";
  spec.tag = "fleet-ha";
  // Hosts are sized for double their fair share: survivors absorb a failed
  // host's tenants on top of their own.
  spec.config = TwoTierHost(scale, 2 * kVms / kHosts, seed);
  std::string shared;
  for (int h = 0; h < kHosts; ++h) {
    shared += (h == 0 ? "" : ",") + std::string("migratefail=0.3/1ms@") + std::to_string(h);
  }
  shared += ",hostfail=1/10s@2";
  spec.config.faults = ParsePlan(shared);
  spec.cluster.num_hosts = kHosts;
  spec.cluster.placement = PlacementPolicy::kSpread;
  spec.cluster.epoch = 2 * kMillisecond;
  spec.cluster.migration.stop_copy_pages = 512;
  spec.cluster.migration.max_precopy_rounds = 2;
  spec.cluster.migration.max_retries = 3;
  spec.cluster.migration.retry_backoff_epochs = 2;
  spec.cluster.host_faults = {ParsePlan("tiershrink=0.3/6ms/20ms@0"), FaultPlan{}};
  const std::vector<PolicyKind>& policies = AllPolicies();
  for (int v = 0; v < kVms; ++v) {
    const PolicyKind policy = policies[static_cast<size_t>(v) % policies.size()];
    VmSetup setup = VmFor(scale, kWorkloads[v % 4], policy);
    setup.provision = NaturalProvision(policy);
    if (v % 4 == 3) {
      setup.boot_at = static_cast<Nanos>(4 + 2 * v) * kMillisecond;
    } else if (v % 4 == 1) {
      setup.depart_on_finish = true;
    }
    spec.vms.push_back(setup);
  }
  return {spec};
}

}  // namespace

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTierRead:
      return "tier-read";
    case WorkloadKind::kOvercommitWrite:
      return "overcommit-write";
    case WorkloadKind::kFleetHa:
      return "fleet-ha";
  }
  return "?";
}

std::optional<WorkloadKind> WorkloadFromName(const std::string& name) {
  for (const WorkloadKind kind :
       {WorkloadKind::kTierRead, WorkloadKind::kOvercommitWrite, WorkloadKind::kFleetHa}) {
    if (name == WorkloadName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

Scale Scale::For(bool tiny) {
  Scale scale;
  if (tiny) {
    scale.vm_bytes = 8 * kMiB;
    scale.xsbench_txns = 2000;
    scale.btree_txns = 6000;
    scale.silo_txns = 3000;
    scale.gups_txns = 15000;
  }
  return scale;
}

uint64_t Scale::footprint() const {
  return PageFloor(
      static_cast<uint64_t>(footprint_ratio * static_cast<double>(vm_bytes)));
}

uint64_t Scale::TargetFor(const std::string& workload) const {
  if (workload == "xsbench") {
    return xsbench_txns;
  }
  if (workload == "btree") {
    return btree_txns;
  }
  if (workload == "silo") {
    return silo_txns;
  }
  return gups_txns;
}

int CoreBudget(WorkloadKind kind) { return kind == WorkloadKind::kFleetHa ? kFleetCoreBudget : 1; }

std::vector<ExperimentSpec> BuildSpecs(WorkloadKind kind, uint64_t seed, const Scale& scale) {
  switch (kind) {
    case WorkloadKind::kTierRead:
      return TierRead(scale, seed);
    case WorkloadKind::kOvercommitWrite:
      return OvercommitWrite(scale, seed);
    case WorkloadKind::kFleetHa:
      return FleetHa(scale, seed);
  }
  return {};
}

const std::vector<PolicyKind>& AllPolicies() {
  static const std::vector<PolicyKind> kPolicies = {
      PolicyKind::kDemeter, PolicyKind::kTpp,   PolicyKind::kHTpp,  PolicyKind::kMemtis,
      PolicyKind::kNomad,   PolicyKind::kDamon, PolicyKind::kStatic};
  return kPolicies;
}

}  // namespace demeter::perfbench
