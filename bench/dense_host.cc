// Dense single-host tenancy sweep: one Machine carrying 16 / 64 / 256 small
// VMs (4 / 8 / 16 under --smoke), the consolidation regime the sharded-host
// refactor exists for. Each tenant count runs twice — shards=1 and
// shards=K — and the bench hard-fails unless the two runs' metrics are
// byte-identical down to the last counter: sharding is an ownership
// structure, never a schedule, and this is where that guarantee is enforced
// at scale rather than at unit-test size.
//
// The tenant mix is deliberately churny: policies alternate between Demeter
// and TPP, every eighth VM boots deferred, and every fifth departs as soon
// as it hits its target — so shard membership changes constantly while the
// run is in flight (ActivateVm / DeactivateVm under load, not just at
// boot). The headline table reports per-count aggregate throughput plus the
// host-side wall clock, and prints the wall-clock growth ratio between
// consecutive tenant counts: a dense host must scale ~linearly in N, not
// quadratically (the small-N assumptions this PR removed). The smallest
// count's simulator state fits in last-level cache, so the first ratio
// reads high (a cache-regime transition, not algorithmic growth); the
// 64->256 ratio is the honest scaling signal.
//
// This bench owns its churn pattern; the generic --faults flag composes
// fine and is accepted.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#endif

#include "bench/common.h"
#include "src/base/logging.h"

namespace demeter {
namespace {

constexpr int kFullCounts[] = {16, 64, 256};
constexpr int kSmokeCounts[] = {4, 8, 16};

// The shard count the byte-identity leg runs against. 8 keeps whole
// shard blocks at every swept tenant count (16/8 = 2 VMs per shard up to
// 256/8 = 32) while staying well under Machine::kMaxShards.
constexpr int kCompareShards = 8;

ExperimentSpec DenseSpec(const BenchScale& scale, int num_vms, uint64_t transactions,
                         int shards, double bw_scale) {
  ExperimentSpec spec;
  spec.name = "dense/" + std::to_string(num_vms) + "vms";
  spec.tag = std::to_string(num_vms) + "vms";
  spec.config = HostFor(scale, num_vms, SmemKind::kPmem);
  spec.config.shards = shards;
  // A host consolidating 4x the tenants is a bigger box (more channels /
  // sockets), not the same box run hotter: HostFor already scales tier
  // *capacity* with N, and this scales tier *bandwidth* the same way, so
  // the per-tenant bandwidth share is constant across the sweep. Without
  // it the M/M/1 queueing model saturates at the utilization cap, simulated
  // time stretches, and the wall-clock column measures saturation physics
  // instead of how the simulator itself scales with N.
  for (TierSpec& tier : spec.config.tiers) {
    tier.read_bw_mbps *= bw_scale;
    tier.write_bw_mbps *= bw_scale;
  }
  for (int v = 0; v < num_vms; ++v) {
    VmSetup setup = SetupFor(scale, "gups", v % 2 == 0 ? PolicyKind::kDemeter : PolicyKind::kTpp);
    setup.target_transactions = transactions;
    if (v % 2 == 0) {
      setup.provision = ProvisionMode::kDemeterBalloon;
    }
    // Lifecycle churn at density: deferred boots land mid-run (staggered so
    // they do not all arrive at one horizon) and early finishers tear down
    // while their shard neighbours keep running.
    if (v % 8 == 7) {
      setup.boot_at = 5 * kMillisecond * static_cast<Nanos>(1 + v % 4);
    }
    if (v % 5 == 4) {
      setup.depart_on_finish = true;
    }
    spec.vms.push_back(setup);
  }
  return spec;
}

// Everything a run produced, serialized: derived seed, per-VM results, and
// the full host registry. Two runs agreeing on this string agree on every
// number the simulation can emit.
std::string ResultFingerprint(const ExperimentResult& result) {
  std::string out = "seed=" + std::to_string(result.seed) + "\n";
  for (const VmRunResult& vm : result.vms) {
    out += "txn=" + std::to_string(vm.transactions) + " elapsed=" + std::to_string(vm.elapsed_s) +
           " fmem=" + std::to_string(vm.fmem_access_fraction) + "\n";
    out += vm.metrics.ToJson();
    out += "\n";
  }
  out += result.host_metrics.ToJson();
  return out;
}

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  const int* counts = scale.smoke ? kSmokeCounts : kFullCounts;
  const size_t num_counts =
      scale.smoke ? sizeof(kSmokeCounts) / sizeof(int) : sizeof(kFullCounts) / sizeof(int);
  // Dense tenants are small: divide the per-VM target so total work grows
  // with N at a rate a single host can actually carry.
  const uint64_t transactions = scale.smoke ? scale.transactions : scale.transactions / 8;

  std::printf("Dense host sweep: %zu tenant counts, shards=1 vs shards=%d byte-compare "
              "per count, churny mix (deferred boots + departures)\n\n",
              num_counts, kCompareShards);

  std::vector<ExperimentResult> results;
  std::vector<double> wall_s(num_counts, 0.0);
  for (size_t c = 0; c < num_counts; ++c) {
    const int vms = counts[c];
#if defined(__GLIBC__) || defined(__linux__)
    // The wall-clock column compares counts: give each one a clean heap so
    // fragmentation left by the previous (smaller) count's teardown does
    // not tax the bigger run and skew the scaling ratio.
    malloc_trim(0);
#endif
    const double bw_scale = static_cast<double>(vms) / static_cast<double>(counts[0]);
    ExperimentRunner runner(RunnerOptionsFor(scale));
    runner.Submit(DenseSpec(scale, vms, transactions, /*shards=*/1, bw_scale));
    runner.Submit(DenseSpec(scale, vms, transactions, kCompareShards, bw_scale));
    const auto start = std::chrono::steady_clock::now();
    std::vector<ExperimentResult> pair = runner.RunAll();
    wall_s[c] = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    DEMETER_CHECK_EQ(pair.size(), 2u);
    DEMETER_CHECK(pair[0].ok) << pair[0].spec.name << ": " << pair[0].error;
    DEMETER_CHECK(pair[1].ok) << pair[1].spec.name << ": " << pair[1].error;
    // The tentpole guarantee, enforced at bench scale: the shard count must
    // be invisible in every byte of every metric.
    DEMETER_CHECK(ResultFingerprint(pair[0]) == ResultFingerprint(pair[1]))
        << pair[0].spec.name << ": shards=1 and shards=" << kCompareShards
        << " runs diverged — sharding leaked into simulation order";
    for (const VmRunResult& vm : pair[0].vms) {
      DEMETER_CHECK_GE(vm.transactions, transactions) << pair[0].spec.name;
    }
    // Only the shards=1 leg feeds the table / --out: the other is its
    // byte-for-byte twin by the check above.
    results.push_back(std::move(pair[0]));
  }

  PrintResultTable(results);

  std::printf("\nScaling (aggregate throughput and host wall clock vs tenant count):\n");
  std::printf("  %6s %12s %12s %10s %12s\n", "vms", "agg_tps", "mean_tps/vm", "wall_s",
              "wall_ratio");
  for (size_t c = 0; c < num_counts; ++c) {
    const double tps = TotalTps(results[c]);
    // Each leg ran both shard variants, so the comparable per-count cost is
    // half the measured wall time.
    const double wall = wall_s[c] / 2.0;
    const double prev_wall = c > 0 ? wall_s[c - 1] / 2.0 : 0.0;
    const double vm_ratio =
        c > 0 ? static_cast<double>(counts[c]) / static_cast<double>(counts[c - 1]) : 1.0;
    if (c > 0 && prev_wall > 0.0) {
      std::printf("  %6d %12.0f %12.0f %10.2f %9.2fx (vs %.0fx VMs)\n", counts[c], tps,
                  tps / counts[c], wall, wall / prev_wall, vm_ratio);
    } else {
      std::printf("  %6d %12.0f %12.0f %10.2f %12s\n", counts[c], tps, tps / counts[c], wall,
                  "-");
    }
  }
  std::printf("\nshards=1 == shards=%d byte-identical at every tenant count.\n", kCompareShards);

  WriteOutputs(scale, results);
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
