// Full-system determinism: identical configuration => bit-identical results,
// for every policy and for multi-VM runs. Reproducibility is a first-class
// property of the simulation (all randomness is seeded; no wall-clock
// dependence), and every experiment in EXPERIMENTS.md relies on it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/harness/machine.h"
#include "src/runner/experiment.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"
#include "src/telemetry/tracer.h"

namespace demeter {
namespace {

struct Fingerprint {
  uint64_t transactions;
  double elapsed_s;
  uint64_t accesses;
  uint64_t promoted;
  uint64_t demoted;
  uint64_t single_flushes;
  uint64_t full_flushes;
  uint64_t mgmt_total;

  bool operator==(const Fingerprint& other) const {
    return transactions == other.transactions && elapsed_s == other.elapsed_s &&
           accesses == other.accesses && promoted == other.promoted &&
           demoted == other.demoted && single_flushes == other.single_flushes &&
           full_flushes == other.full_flushes && mgmt_total == other.mgmt_total;
  }
};

Fingerprint RunOnce(PolicyKind policy, int vms, uint64_t seed,
                    const std::string& fault_spec = "") {
  MachineConfig host;
  host.tiers = {TierSpec::LocalDram(10 * kMiB * static_cast<uint64_t>(vms)),
                TierSpec::Pmem(64 * kMiB * static_cast<uint64_t>(vms))};
  host.seed = seed;
  if (!fault_spec.empty()) {
    const auto plan = FaultPlan::Parse(fault_spec);
    EXPECT_TRUE(plan.has_value()) << fault_spec;
    host.faults = *plan;
  }
  Machine machine(host);
  for (int v = 0; v < vms; ++v) {
    VmSetup setup;
    setup.vm.total_memory_bytes = 32 * kMiB;
    setup.vm.num_vcpus = 2;
    setup.workload = "gups";
    setup.footprint_bytes = 24 * kMiB;
    setup.target_transactions = 150000;
    setup.policy = policy;
    setup.policy_period = 15 * kMillisecond;
    setup.demeter.range.epoch_length = 10 * kMillisecond;
    setup.demeter.range.split_threshold = 4.0;
    setup.demeter.sample_period = 97;
    machine.AddVm(setup);
  }
  machine.Run();
  Fingerprint fp{};
  for (int v = 0; v < vms; ++v) {
    const VmRunResult& r = machine.result(v);
    fp.transactions += r.transactions;
    fp.elapsed_s += r.elapsed_s;
    fp.accesses += r.vm_stats.accesses;
    fp.promoted += r.vm_stats.pages_promoted;
    fp.demoted += r.vm_stats.pages_demoted;
    fp.single_flushes += r.tlb.single_flushes;
    fp.full_flushes += r.tlb.full_flushes;
    fp.mgmt_total += r.mgmt.Total();
  }
  return fp;
}

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, IdenticalRunsBitIdentical) {
  const PolicyKind policy = PolicyKindFromName(GetParam());
  const Fingerprint a = RunOnce(policy, 1, 42);
  const Fingerprint b = RunOnce(policy, 1, 42);
  EXPECT_TRUE(a == b) << "same seed must reproduce exactly";
}

TEST_P(DeterminismTest, DifferentSeedsDiffer) {
  const PolicyKind policy = PolicyKindFromName(GetParam());
  const Fingerprint a = RunOnce(policy, 1, 42);
  const Fingerprint b = RunOnce(policy, 1, 43);
  // Access streams differ, so at minimum the timing fingerprint moves.
  EXPECT_NE(a.elapsed_s, b.elapsed_s);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DeterminismTest,
                         ::testing::Values("static", "demeter", "tpp", "tpp-h", "memtis",
                                           "nomad", "damon"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(DeterminismMultiVm, ThreeVmRunReproduces) {
  const Fingerprint a = RunOnce(PolicyKind::kDemeter, 3, 7);
  const Fingerprint b = RunOnce(PolicyKind::kDemeter, 3, 7);
  EXPECT_TRUE(a == b);
}

// Faulted runs are just as deterministic as fault-free ones: the injector's
// per-(site, vm) streams derive from the machine seed, and stall/crash
// windows are pure functions of virtual time.
constexpr char kFaultSpec[] =
    "bdelay=0.2/100us,bdrop=0.3,stall=2ms/8ms,crash=3ms/20ms,"
    "pebsdrop=0.3,migfail=0.2,tierex=0.05,vqcap=4";

TEST(DeterminismFaulted, IdenticalFaultedRunsBitIdentical) {
  const Fingerprint a = RunOnce(PolicyKind::kDemeter, 1, 42, kFaultSpec);
  const Fingerprint b = RunOnce(PolicyKind::kDemeter, 1, 42, kFaultSpec);
  EXPECT_TRUE(a == b) << "same seed + same fault spec must reproduce exactly";
  // And the faults actually engaged — this is not a vacuous pass.
  const Fingerprint clean = RunOnce(PolicyKind::kDemeter, 1, 42);
  EXPECT_NE(a.elapsed_s, clean.elapsed_s);
}

TEST(DeterminismFaulted, FaultedMultiVmReproduces) {
  const Fingerprint a = RunOnce(PolicyKind::kDemeter, 3, 7, kFaultSpec);
  const Fingerprint b = RunOnce(PolicyKind::kDemeter, 3, 7, kFaultSpec);
  EXPECT_TRUE(a == b);
}

TEST(DeterminismFaulted, FaultSeedChangesDecisions) {
  const Fingerprint a = RunOnce(PolicyKind::kDemeter, 1, 42, kFaultSpec);
  const Fingerprint b = RunOnce(PolicyKind::kDemeter, 1, 43, kFaultSpec);
  EXPECT_NE(a.elapsed_s, b.elapsed_s);
}

// Sharding is an ownership structure, not a schedule: the shard count must
// be invisible down to the last byte of the metrics JSON, including under
// lifecycle churn (deferred boots, departures) and faults. This is the
// guarantee that lets bench/dense_host pick shards for locality while every
// pinned baseline stays valid.
std::string ShardedMetricsJson(int shards, int vms, uint64_t seed,
                               const std::string& fault_spec = "") {
  MachineConfig host;
  host.tiers = {TierSpec::LocalDram(2 * kMiB * static_cast<uint64_t>(vms)),
                TierSpec::Pmem(12 * kMiB * static_cast<uint64_t>(vms))};
  host.seed = seed;
  host.shards = shards;
  if (!fault_spec.empty()) {
    const auto plan = FaultPlan::Parse(fault_spec);
    EXPECT_TRUE(plan.has_value()) << fault_spec;
    host.faults = *plan;
  }
  Machine machine(host);
  for (int v = 0; v < vms; ++v) {
    VmSetup setup;
    setup.vm.total_memory_bytes = 8 * kMiB;
    setup.vm.num_vcpus = 2;
    setup.workload = "gups";
    setup.footprint_bytes = 6 * kMiB;
    setup.target_transactions = 4000;
    setup.policy = v % 2 == 0 ? PolicyKind::kDemeter : PolicyKind::kTpp;
    setup.policy_period = 15 * kMillisecond;
    setup.demeter.range.epoch_length = 10 * kMillisecond;
    setup.demeter.sample_period = 97;
    // Churn: every fourth VM boots late (crossing shard refresh paths),
    // every third departs on finish (exercising DeactivateVm mid-run).
    if (v % 4 == 3) {
      setup.boot_at = 5 * kMillisecond * static_cast<Nanos>(1 + v % 3);
    }
    setup.depart_on_finish = v % 3 == 0;
    machine.AddVm(setup);
  }
  machine.Run();
  std::string json;
  machine.SnapshotMetrics().AppendJson(json);
  EXPECT_FALSE(json.empty());
  return json;
}

TEST(DeterminismSharded, ShardCountIsByteInvisibleAt64Vms) {
  const std::string one = ShardedMetricsJson(1, 64, 42);
  EXPECT_EQ(one, ShardedMetricsJson(4, 64, 42));
  EXPECT_EQ(one, ShardedMetricsJson(8, 64, 42));
}

TEST(DeterminismSharded, ShardCountIsByteInvisibleUnderFaults) {
  const std::string one = ShardedMetricsJson(1, 64, 42, kFaultSpec);
  EXPECT_EQ(one, ShardedMetricsJson(4, 64, 42, kFaultSpec));
  EXPECT_EQ(one, ShardedMetricsJson(8, 64, 42, kFaultSpec));
}

// Host threads are an execution strategy, not a schedule: a fleet stepped on
// any number of threads must match the serial fleet byte for byte. The
// fleet drives every barrier-time path that reads host state: tiershrink on
// even hosts forces evacuations, migratefail aborts some of them (and the
// retry queue re-plans them), host 2 fail-stops at the first barrier and
// its VMs restart on the survivors, and the VM list mixes late boots and
// departures.
ExperimentSpec FaultedFleetSpec() {
  constexpr int kHosts = 4;
  constexpr int kVms = 8;
  constexpr uint64_t kVmBytes = 16 * kMiB;
  ExperimentSpec spec;
  spec.name = "faulted-fleet";
  spec.tag = "fleet";
  // Room for twice the fair share: survivors absorb host 2's tenants.
  constexpr uint64_t kSlots = 2 * kVms / kHosts;
  spec.config.tiers = {TierSpec::LocalDram(5 * kMiB * kSlots),
                       TierSpec::Pmem(3 * kVmBytes * kSlots)};
  spec.config.seed = 11;
  spec.config.capture_trace = true;
  spec.config.check_invariants = true;
  const auto plan = FaultPlan::Parse(
      "migratefail=1.0/1us@0,migratefail=0.3/1ms@1,migratefail=0.3/1ms@3,hostfail=1/10s@2");
  EXPECT_TRUE(plan.has_value());
  spec.config.faults = plan.value_or(FaultPlan{});
  spec.cluster.num_hosts = kHosts;
  spec.cluster.placement = PlacementPolicy::kSpread;
  spec.cluster.epoch = 2 * kMillisecond;
  spec.cluster.migration.stop_copy_pages = 256;
  spec.cluster.migration.max_precopy_rounds = 2;
  spec.cluster.migration.max_retries = 3;
  spec.cluster.migration.retry_backoff_epochs = 2;
  const auto shrink = FaultPlan::Parse("tiershrink=0.3/6ms/20ms@0");
  EXPECT_TRUE(shrink.has_value());
  spec.cluster.host_faults = {shrink.value_or(FaultPlan{}), FaultPlan{}};
  for (int v = 0; v < kVms; ++v) {
    VmSetup setup;
    setup.vm.total_memory_bytes = kVmBytes;
    setup.vm.fmem_ratio = 0.2;
    setup.vm.num_vcpus = 2;
    setup.workload = v % 2 == 0 ? "gups" : "btree";
    setup.footprint_bytes = 12 * kMiB;
    setup.target_transactions = 120000;
    setup.policy = v % 3 == 0 ? PolicyKind::kTpp : PolicyKind::kDemeter;
    setup.provision = setup.policy == PolicyKind::kDemeter ? ProvisionMode::kDemeterBalloon
                                                           : ProvisionMode::kStatic;
    setup.policy_period = 15 * kMillisecond;
    setup.demeter.range.epoch_length = 2 * kMillisecond;
    setup.demeter.sample_period = 97;
    if (v % 4 == 3) {
      setup.boot_at = static_cast<Nanos>(4 + 2 * v) * kMillisecond;
    } else if (v % 4 == 1) {
      setup.depart_on_finish = true;
    }
    spec.vms.push_back(setup);
  }
  return spec;
}

// Everything a run reports: the per-VM result lines and metric trees, the
// fleet snapshot and the trace.
std::string FleetBytes(const ExperimentResult& result) {
  std::string out = JsonLinesSink::ToJsonLines(result);
  for (const VmRunResult& vm : result.vms) {
    out += vm.metrics.ToJson();
  }
  out += result.host_metrics.ToJson();
  out += ChromeTraceJson({NamedTrace{result.spec.name, &result.trace}});
  return out;
}

ExperimentResult RunFleetOnThreads(int host_threads) {
  ExperimentSpec spec = FaultedFleetSpec();
  spec.config.host_threads = host_threads;
  return RunExperiment(spec);
}

TEST(DeterminismFleet, HostThreadCountIsByteInvisible) {
  const ExperimentResult serial = RunFleetOnThreads(1);
  ASSERT_TRUE(serial.ok) << serial.error;
  // Not a vacuous pass: every barrier-time path engaged.
  const MetricSnapshot& fleet = serial.host_metrics;
  EXPECT_GE(fleet.CounterValue("cluster/ha/host_failures"), 1u);
  EXPECT_GE(fleet.CounterValue("cluster/ha/vms_restarted"), 1u);
  EXPECT_GE(fleet.CounterValue("cluster/migration/started"), 1u);
  EXPECT_GE(fleet.CounterValue("cluster/migration/aborted"), 1u);
  EXPECT_GE(fleet.CounterValue("cluster/migration/retries"), 1u);
  EXPECT_FALSE(serial.trace.empty());
  const std::string expected = FleetBytes(serial);
  for (const int threads : {2, 4}) {
    const ExperimentResult parallel = RunFleetOnThreads(threads);
    ASSERT_TRUE(parallel.ok) << parallel.error;
    EXPECT_EQ(FleetBytes(parallel), expected) << threads << " host threads";
  }
}

// A lone cluster spec takes the runner's whole core budget as host threads,
// so --jobs=4 steps it on four threads where --jobs=1 steps it serially.
TEST(DeterminismFleet, RunnerJobsOneAndFourAgree) {
  std::string bytes[2];
  const int jobs[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    RunnerOptions options;
    options.jobs = jobs[run];
    options.progress = false;
    ExperimentRunner runner(options);
    runner.Submit(FaultedFleetSpec());
    const std::vector<ExperimentResult> results = runner.RunAll();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].spec.config.host_threads, jobs[run]);
    bytes[run] = FleetBytes(results[0]);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace demeter
