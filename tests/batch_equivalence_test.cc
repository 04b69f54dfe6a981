// Batched execution equivalence, pinned at two levels.
//
// Machine level (golden digests): Machine runs every quantum as chunks of
// Vm::ExecuteBatch, with same-page run coalescing, chunk horizons and the
// packed TLB probe. For every workload generator, fault-free and faulted,
// two- and three-tier, each scenario's result fields and full metric
// registry (TLB hits/misses/flushes, walk costs, tier access counters,
// fault injections, swap traffic, PEBS/PMI counts, policy migrations) fold
// into one digest. The digests were recorded from the one-ExecuteAccess-
// per-op quantum body the batched loop replaced, and are identical in
// RelWithDebInfo, Release and ASan+UBSan builds: a changed digest is a
// simulated-output change, never a build artefact.
//
// Vm level (live oracle): twin VMs consume the same op stream, one through
// ExecuteAccess plus a clock advance per op, the other through ExecuteBatch
// with random chunk sizes and stop_at horizons. Every op's cost and
// post-op clock, and all VM-visible state afterwards, must be identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/core/demeter_policy.h"
#include "src/fault/fault.h"
#include "src/harness/machine.h"
#include "src/hyper/hypervisor.h"
#include "src/mem/host_memory.h"
#include "src/sim/event_queue.h"

namespace demeter {
namespace {

// ---- Machine level: golden digests ------------------------------------------

struct RunSpec {
  std::string workload = "gups";
  PolicyKind policy = PolicyKind::kStatic;
  std::string fault_spec;
  bool three_tier = false;
  uint64_t target_transactions = 60000;
};

uint64_t RunDigest(const RunSpec& spec) {
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

  const VmRunResult& r = machine.result(i);
  HashStream h;
  // Bit patterns, not approximate values: the same floating-point
  // accumulations must happen in the same order.
  h.U64(r.transactions).F64(r.elapsed_s).F64(r.fmem_access_fraction);
  h.U64(r.timeline.size());
  for (const uint64_t txns : r.timeline) {
    h.U64(txns);
  }
  h.Str(machine.SnapshotMetrics().ToJson());
  return h.Digest();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void ExpectDigest(const RunSpec& spec, uint64_t golden) {
  EXPECT_EQ(Hex(RunDigest(spec)), Hex(golden));
}

// Every workload generator, fault-free. Access patterns span uniform-random
// (gups), skewed (gups-hot), pointer-chasing (btree, graph500), scans with
// high run-length (bwaves, liblinear) and transactional mixes (silo) — the
// run-coalescing memo fires at very different rates across these.
struct WorkloadDigest {
  const char* workload;
  uint64_t digest;
};

class BatchEquivalenceWorkloads : public ::testing::TestWithParam<WorkloadDigest> {};

TEST_P(BatchEquivalenceWorkloads, MatchesGoldenDigest) {
  RunSpec spec;
  spec.workload = GetParam().workload;
  ExpectDigest(spec, GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BatchEquivalenceWorkloads,
    ::testing::Values(WorkloadDigest{"gups", 0x3dc32496c319145eULL},
                      WorkloadDigest{"gups-hot", 0x46adb10c993556daULL},
                      WorkloadDigest{"btree", 0xc7bd1a7bdcc67763ULL},
                      WorkloadDigest{"silo", 0xd9594e9630d31060ULL},
                      WorkloadDigest{"bwaves", 0x91e66f6ec152de5aULL},
                      WorkloadDigest{"xsbench", 0x76bbb1733c1ba8aaULL},
                      WorkloadDigest{"graph500", 0x34b2e5f909718886ULL},
                      WorkloadDigest{"pagerank", 0x467d3907a0fd0b09ULL},
                      WorkloadDigest{"liblinear", 0x16e143e955f696b6ULL}),
    [](const ::testing::TestParamInfo<WorkloadDigest>& info) {
      std::string name = info.param.workload;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// An active policy migrates pages mid-run (PMIs, shootdowns, full flushes),
// exercising the memo-invalidation paths.
TEST(BatchEquivalence, DemeterPolicy) {
  RunSpec spec;
  spec.policy = PolicyKind::kDemeter;
  ExpectDigest(spec, 0x67431407f0d1a00cULL);
}

TEST(BatchEquivalence, SequentialWorkloadWithPolicy) {
  RunSpec spec;
  spec.workload = "bwaves";
  spec.policy = PolicyKind::kDemeter;
  ExpectDigest(spec, 0xd4944f09124cb9fbULL);
}

// Faulted: hwpoison on both tiers (per-access Bernoulli draws — the most
// order-sensitive site), stall windows, PEBS sample loss, migration
// failures. Counters include every vm0/fault/<site>_injected cell.
TEST(BatchEquivalence, FaultedPoisonAndStalls) {
  RunSpec spec;
  spec.policy = PolicyKind::kDemeter;
  spec.fault_spec = "poison=0.000002@0,poison=0.000002@1,stall=2ms/40ms,pebsdrop=0.01,migfail=0.05";
  ExpectDigest(spec, 0x5924be126d939950ULL);
}

TEST(BatchEquivalence, FaultedSequential) {
  RunSpec spec;
  spec.workload = "bwaves";
  spec.fault_spec = "poison=0.000002@0,poison=0.000002@1";
  ExpectDigest(spec, 0x42aa676fe6a06e00ULL);
}

// Three-tier host under memory pressure: swap-in retries and in-place far
// accesses (never memoized) flow through the batch path.
TEST(BatchEquivalence, ThreeTierSwapPressure) {
  RunSpec spec;
  spec.three_tier = true;
  spec.target_transactions = 30000;
  ExpectDigest(spec, 0xcd7b7f4e679bdcaeULL);
}

TEST(BatchEquivalence, ThreeTierFaulted) {
  RunSpec spec;
  spec.three_tier = true;
  spec.fault_spec = "poison=0.000002@1,swapfail=0.01/1ms";
  spec.target_transactions = 30000;
  ExpectDigest(spec, 0x9eeab4a34b3b4ec5ULL);
}

// ---- Vm level: live op-by-op oracle -----------------------------------------

struct TwinSetup {
  std::vector<TierSpec> tiers = {TierSpec::LocalDram(16 * kMiB), TierSpec::Pmem(64 * kMiB)};
  bool swap = false;
  std::string faults;
  bool demeter = false;
};

// One host with one VM and one process over a 20 MiB heap, built
// identically for each side of the comparison.
class Twin {
 public:
  static constexpr uint64_t kFootprint = 20 * kMiB;

  // The PMI handler below captures `this`.
  Twin(const Twin&) = delete;
  Twin& operator=(const Twin&) = delete;

  explicit Twin(const TwinSetup& setup) : memory_(setup.tiers), hyper_(&memory_, &events_) {
    // Fault injector and swap device are bound before the VM, as the
    // harness does: the VM caches both at construction.
    if (!setup.faults.empty()) {
      const auto plan = FaultPlan::Parse(setup.faults);
      EXPECT_TRUE(plan.has_value()) << setup.faults;
      fault_ = std::make_unique<FaultInjector>(*plan, /*seed=*/11);
      hyper_.set_fault_injector(fault_.get());
    }
    if (setup.swap) {
      hyper_.EnableSwap(SwapDeviceConfig{});
    }
    VmConfig config;
    config.id = 0;
    config.num_vcpus = 2;
    config.total_memory_bytes = 32 * kMiB;
    config.cache_hit_rate = 0.1;
    config.rng_seed = 5;
    config.pebs.buffer_capacity = 16;  // Small buffer: PMIs fire mid-batch.
    vm_ = &hyper_.CreateVm(config);
    process_ = &vm_->kernel().CreateProcess();
    base_ = process_->HeapAlloc(kFootprint);
    if (setup.demeter) {
      DemeterConfig demeter;
      demeter.sample_period = 5;
      demeter.range.epoch_length = 2 * kMillisecond;
      demeter.range.split_threshold = 4.0;
      policy_ = std::make_unique<DemeterPolicy>(demeter);
      policy_->Attach(*vm_, *process_, /*start=*/0);
      // Replace the policy's PMI handler with one that migrates the page
      // of the access that raised the PMI. Demeter's own handler only
      // queues samples, so without this a run memo that survived a PMI
      // would still read a valid frame and go unnoticed.
      for (int v = 0; v < vm_->num_vcpus(); ++v) {
        vm_->vcpu(v).pebs->set_pmi_handler([this](std::vector<PebsRecord>&& records, Nanos now) {
          const PageNum vpn = PageOf(records.back().gva);
          const int node = vm_->NodeOfVpn(*process_, vpn);
          double cost = 0.0;
          if (node >= 0) {
            vm_->MovePage(*process_, vpn, 1 - node, now, &cost);
          }
          vm_->mgmt_account().Charge(TmmStage::kPmi, static_cast<Nanos>(cost));
        });
      }
    }
    hyper_.RegisterMetrics(MetricScope(&registry_, "host"));
    const MetricScope scope(&registry_, "vm0");
    vm_->RegisterMetrics(scope);
    if (policy_ != nullptr) {
      policy_->RegisterMetrics(scope.Sub("policy"));
    }
    if (fault_ != nullptr) {
      fault_->RegisterVmMetrics(scope.Sub("fault"), 0);
    }
  }

  Vm& vm() { return *vm_; }
  GuestProcess& process() { return *process_; }
  uint64_t base() const { return base_; }

  // What the harness does between chunks: service a due context-switch
  // tick, then drain events up to the slowest vCPU.
  void BetweenChunks(int v) {
    Vcpu& vcpu = vm_->vcpu(v);
    if (vcpu.clock_ns >= static_cast<double>(vcpu.next_context_switch)) {
      vcpu.clock_ns += vm_->OnContextSwitch(v, vcpu.now());
      vcpu.next_context_switch += vm_->config().context_switch_period;
    }
    events_.RunUntil(std::min(vm_->vcpu(0).now(), vm_->vcpu(1).now()));
  }

  std::string MetricsJson() const { return registry_.Snapshot().ToJson(); }

 private:
  HostMemory memory_;
  EventQueue events_;
  std::unique_ptr<FaultInjector> fault_;
  Hypervisor hyper_;
  MetricRegistry registry_;
  std::unique_ptr<DemeterPolicy> policy_;
  Vm* vm_ = nullptr;
  GuestProcess* process_ = nullptr;
  uint64_t base_ = 0;
};

// A skewed op stream with same-page runs: half the ops stay on the previous
// page (at another cache line), the rest jump, mostly into a hot eighth.
std::vector<AccessOp> MakeOps(uint64_t base, size_t count) {
  Rng rng(2024);
  const uint64_t pages = Twin::kFootprint / kPageSize;
  std::vector<AccessOp> ops;
  ops.reserve(count);
  uint64_t page = 0;
  for (size_t k = 0; k < count; ++k) {
    if (!rng.NextBool(0.5)) {
      page = rng.NextBool(0.7) ? rng.NextBelow(pages / 8) : rng.NextBelow(pages);
    }
    ops.push_back(AccessOp{base + page * kPageSize + rng.NextBelow(64) * 64, rng.NextBool(0.3)});
  }
  return ops;
}

void ExpectSameVmStats(const VmStats& a, const VmStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.guest_faults, b.guest_faults);
  EXPECT_EQ(a.ept_faults, b.ept_faults);
  EXPECT_EQ(a.fmem_accesses, b.fmem_accesses);
  EXPECT_EQ(a.smem_accesses, b.smem_accesses);
  EXPECT_EQ(a.swap_accesses, b.swap_accesses);
  EXPECT_EQ(a.swap_ins, b.swap_ins);
  EXPECT_EQ(a.pages_promoted, b.pages_promoted);
  EXPECT_EQ(a.pages_demoted, b.pages_demoted);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.total_access_ns, b.total_access_ns);
}

// Drives `op_by_op` through ExecuteAccess + a clock advance per op and
// `batched` through ExecuteBatch, in lock-step chunks: each chunk runs on
// alternating vCPUs with a random op count and a random stop_at horizon
// (sometimes the current clock, forcing a one-op chunk), and both twins
// service ticks and drain events at the same points afterwards.
void ExpectBatchMatchesOpByOp(const TwinSetup& setup, size_t num_ops) {
  Twin op_by_op(setup);
  Twin batched(setup);
  ASSERT_EQ(op_by_op.base(), batched.base());
  const std::vector<AccessOp> ops = MakeOps(op_by_op.base(), num_ops);
  std::vector<BatchStep> steps(ops.size());
  Rng rng(77);
  size_t pos = 0;
  for (int chunk = 0; pos < ops.size(); ++chunk) {
    const int v = chunk % 2;
    const size_t take = std::min<size_t>(1 + rng.NextBelow(256), ops.size() - pos);
    const double stop_at = batched.vm().vcpu(v).clock_ns.value() +
                           (rng.NextBool(0.2) ? 0.0 : static_cast<double>(rng.NextBelow(60000)));
    const size_t done = batched.vm().ExecuteBatch(
        v, batched.process(), std::span<const AccessOp>(ops.data() + pos, take), stop_at,
        steps.data());
    ASSERT_GE(done, 1u);
    ASSERT_LE(done, take);
    Vcpu& vcpu = op_by_op.vm().vcpu(v);
    for (size_t k = 0; k < done; ++k) {
      const AccessOp& op = ops[pos + k];
      const AccessResult r =
          op_by_op.vm().ExecuteAccess(v, op_by_op.process(), op.gva, op.is_write);
      vcpu.clock_ns += r.ns;
      ASSERT_EQ(r.ns, steps[k].ns) << "op " << pos + k;
      ASSERT_EQ(vcpu.now(), steps[k].clock_after) << "op " << pos + k;
      // The batch stops exactly where an op-by-op loop checking the
      // horizon after each op would.
      const bool reached = !(vcpu.clock_ns < stop_at);
      ASSERT_FALSE(reached && k + 1 < done) << "batch ran past its horizon at op " << pos + k;
      if (k + 1 == done && done < take) {
        ASSERT_TRUE(reached) << "batch stopped short of its horizon at op " << pos + k;
      }
    }
    pos += done;
    op_by_op.BetweenChunks(v);
    batched.BetweenChunks(v);
  }

  ExpectSameVmStats(op_by_op.vm().stats(), batched.vm().stats());
  const TlbStats tlb_a = op_by_op.vm().AggregateTlbStats();
  const TlbStats tlb_b = batched.vm().AggregateTlbStats();
  EXPECT_EQ(tlb_a.hits, tlb_b.hits);
  EXPECT_EQ(tlb_a.misses, tlb_b.misses);
  EXPECT_EQ(tlb_a.single_flushes, tlb_b.single_flushes);
  EXPECT_EQ(tlb_a.full_flushes, tlb_b.full_flushes);
  const Histogram& walk_a = op_by_op.vm().walk_cost_histogram();
  const Histogram& walk_b = batched.vm().walk_cost_histogram();
  EXPECT_EQ(walk_a.count(), walk_b.count());
  EXPECT_EQ(walk_a.sum(), walk_b.sum());
  EXPECT_EQ(walk_a.min(), walk_b.min());
  EXPECT_EQ(walk_a.max(), walk_b.max());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(walk_a.Percentile(p), walk_b.Percentile(p)) << "p" << p;
  }
  EXPECT_EQ(op_by_op.MetricsJson(), batched.MetricsJson());
}

// Demeter with a 5-load sample period and a 16-record buffer: PMIs fire
// inside batches, and each one moves the page the current run is on.
TEST(BatchMatchesOpByOp, DemeterPmisMidRun) {
  TwinSetup setup;
  setup.demeter = true;
  ExpectBatchMatchesOpByOp(setup, 150000);
}

// hwpoison on both tiers: every non-cache-hit access draws, including the
// ones the run memo coalesces, and a hit retires the frame mid-run.
TEST(BatchMatchesOpByOp, PoisonOnBothTiers) {
  TwinSetup setup;
  setup.faults = "poison=0.0005@0,poison=0.0005@1";
  ExpectBatchMatchesOpByOp(setup, 150000);
}

// Three-tier host smaller than the footprint: swap-ins, in-place far
// accesses (never memoized) and writeback events between chunks.
TEST(BatchMatchesOpByOp, ThreeTierSwap) {
  TwinSetup setup;
  setup.tiers = {TierSpec::LocalDram(4 * kMiB), TierSpec::Pmem(6 * kMiB),
                 TierSpec::Zswap(64 * kMiB)};
  setup.swap = true;
  ExpectBatchMatchesOpByOp(setup, 150000);
}

}  // namespace
}  // namespace demeter
