// Batched-vs-scalar equivalence: Machine's batched execution path
// (Vm::ExecuteBatch with same-page run coalescing, chunk horizons, and the
// packed TLB probe) must be a pure execution-strategy change. For every
// workload generator, fault-free and faulted, two- and three-tier, the
// full metric registry — TLB hits/misses/flushes, walk costs, tier access
// counters, fault injections, swap traffic, PEBS/PMI counts, policy
// migrations — and every per-VM result field must be byte-identical to the
// legacy one-ExecuteAccess-per-op path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/harness/machine.h"

namespace demeter {
namespace {

struct RunOutput {
  uint64_t transactions = 0;
  double elapsed_s = 0.0;
  double fmem_access_fraction = 0.0;
  std::vector<uint64_t> timeline;
  std::string metrics_json;  // Full machine registry, stable-ordered.
};

struct RunSpec {
  std::string workload = "gups";
  PolicyKind policy = PolicyKind::kStatic;
  std::string fault_spec;
  bool three_tier = false;
  uint64_t target_transactions = 60000;
};

RunOutput RunOnce(const RunSpec& spec, bool batched) {
  MachineConfig host;
  if (spec.three_tier) {
    // FMEM + SMEM deliberately smaller than the footprint so EPT populates
    // spill into the far swap tier and accesses take the swap-in path.
    host.tiers = {TierSpec::LocalDram(4 * kMiB), TierSpec::Pmem(12 * kMiB),
                  TierSpec::Zswap(64 * kMiB)};
  } else {
    host.tiers = {TierSpec::LocalDram(10 * kMiB), TierSpec::Pmem(64 * kMiB)};
  }
  host.seed = 42;
  host.batched_execution = batched;
  if (!spec.fault_spec.empty()) {
    const auto plan = FaultPlan::Parse(spec.fault_spec);
    EXPECT_TRUE(plan.has_value()) << spec.fault_spec;
    host.faults = *plan;
  }
  Machine machine(host);
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.num_vcpus = 2;
  setup.workload = spec.workload;
  setup.footprint_bytes = 24 * kMiB;
  setup.target_transactions = spec.target_transactions;
  setup.policy = spec.policy;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 10 * kMillisecond;
  setup.demeter.range.split_threshold = 4.0;
  setup.demeter.sample_period = 97;
  const int i = machine.AddVm(setup);
  machine.Run();

  RunOutput out;
  const VmRunResult& r = machine.result(i);
  out.transactions = r.transactions;
  out.elapsed_s = r.elapsed_s;
  out.fmem_access_fraction = r.fmem_access_fraction;
  out.timeline = r.timeline;
  out.metrics_json = machine.SnapshotMetrics().ToJson();
  return out;
}

void ExpectIdentical(const RunSpec& spec) {
  SCOPED_TRACE(spec.workload + (spec.fault_spec.empty() ? "" : " faults=" + spec.fault_spec) +
               (spec.three_tier ? " three-tier" : ""));
  const RunOutput scalar = RunOnce(spec, /*batched=*/false);
  const RunOutput batched = RunOnce(spec, /*batched=*/true);
  EXPECT_EQ(scalar.transactions, batched.transactions);
  // Bit-identical, not approximately equal: the batched path must perform
  // the exact same floating-point accumulations in the exact same order.
  EXPECT_EQ(scalar.elapsed_s, batched.elapsed_s);
  EXPECT_EQ(scalar.fmem_access_fraction, batched.fmem_access_fraction);
  EXPECT_EQ(scalar.timeline, batched.timeline);
  EXPECT_EQ(scalar.metrics_json, batched.metrics_json);
}

// Every workload generator, fault-free. Access patterns span uniform-random
// (gups), skewed (gups-hot), pointer-chasing (btree, graph500), scans with
// high run-length (bwaves, liblinear) and transactional mixes (silo) — the
// run-coalescing memo fires at very different rates across these.
class BatchEquivalenceWorkloads : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchEquivalenceWorkloads, ScalarAndBatchedByteIdentical) {
  RunSpec spec;
  spec.workload = GetParam();
  ExpectIdentical(spec);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BatchEquivalenceWorkloads,
                         ::testing::Values("gups", "gups-hot", "btree", "silo", "bwaves",
                                           "xsbench", "graph500", "pagerank", "liblinear"));

// An active policy migrates pages mid-run (PMIs, shootdowns, full flushes),
// exercising the memo-invalidation paths.
TEST(BatchEquivalence, DemeterPolicy) {
  RunSpec spec;
  spec.policy = PolicyKind::kDemeter;
  ExpectIdentical(spec);
}

TEST(BatchEquivalence, SequentialWorkloadWithPolicy) {
  RunSpec spec;
  spec.workload = "bwaves";
  spec.policy = PolicyKind::kDemeter;
  ExpectIdentical(spec);
}

// Faulted: hwpoison on both tiers (per-access Bernoulli draws — the most
// order-sensitive site), stall windows, PEBS sample loss, migration
// failures. Counters include every vm0/fault/<site>_injected cell.
TEST(BatchEquivalence, FaultedPoisonAndStalls) {
  RunSpec spec;
  spec.policy = PolicyKind::kDemeter;
  spec.fault_spec = "poison=0.000002@0,poison=0.000002@1,stall=2ms/40ms,pebsdrop=0.01,migfail=0.05";
  ExpectIdentical(spec);
}

TEST(BatchEquivalence, FaultedSequential) {
  RunSpec spec;
  spec.workload = "bwaves";
  spec.fault_spec = "poison=0.000002@0,poison=0.000002@1";
  ExpectIdentical(spec);
}

// Three-tier host under memory pressure: swap-in retries and in-place far
// accesses (never memoized) flow through the batch path.
TEST(BatchEquivalence, ThreeTierSwapPressure) {
  RunSpec spec;
  spec.three_tier = true;
  spec.target_transactions = 30000;
  ExpectIdentical(spec);
}

TEST(BatchEquivalence, ThreeTierFaulted) {
  RunSpec spec;
  spec.three_tier = true;
  spec.fault_spec = "poison=0.000002@1,swapfail=0.01/1ms";
  spec.target_transactions = 30000;
  ExpectIdentical(spec);
}

}  // namespace
}  // namespace demeter
