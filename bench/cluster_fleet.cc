// Multi-host fleet sweep: every TMM policy runs the same fleet — VMs placed
// across hosts by the cluster placement controller, a quarter of them
// booting late — twice: once fault-free, and once under the "evac" schedule
// where alternating hosts suffer periodic FMEM shrink windows (driving
// live-migration evacuations toward the healthy hosts) while an armed
// migratefail fault aborts a fraction of those migrations mid-copy.
//
// No paper figure spans hosts — the testbed is one machine — but the
// paper's cloud pitch ("a scalable and elastic tiered memory solution for
// virtualized cloud") is ultimately judged fleet-wide: what does a capacity
// reclaim on one host cost its tenants when they can be moved instead of
// squeezed? This bench reports, per policy, throughput retention versus the
// policy's own fault-free fleet run, plus the migration ledger (started /
// completed / aborted / cancelled, pages copied, downtime).
//
// Fleet flags:
//   --fleet=VxH       V VMs across H >= 2 hosts (default 32x4; --full 128x8;
//                     --smoke 8x2)
//   --placement=NAME  first-fit | best-fit | spread (default first-fit)
//
// This bench owns its fault schedule; the generic --faults flag is rejected
// to avoid silently mixing two schedules.

#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "src/base/logging.h"

namespace demeter {
namespace {

struct FaultLevel {
  const char* name;
  bool evac;  // Arm the shrink + migratefail schedule.
};

constexpr FaultLevel kLevels[] = {
    {"none", false},
    {"evac", true},
};

ExperimentSpec EvacSpecFor(const BenchScale& scale, const PolicyVariant& variant,
                           const FaultLevel& level) {
  // Each host is sized for its fair share plus one VM of slack, so the
  // healthy hosts can absorb evacuees without going straight to swap.
  ExperimentSpec spec = FleetSpecFor(scale, variant, scale.fleet.vms / scale.fleet.hosts + 1,
                                     scale.placement);
  spec.name = std::string("fleet/") + variant.name + "/" + level.name;
  spec.tag = level.name;
  if (level.evac) {
    ArmFleetFaults(spec, MigrateFailSpec(scale.fleet.hosts));
  }
  // A quarter of the fleet arrives late, staggered a barrier apart, so
  // deferred placement decides against a live (and, under "evac",
  // shrinking) load picture rather than an empty fleet.
  for (int v = 3; v < scale.fleet.vms; v += 4) {
    spec.vms[v].boot_at = 20 * kMillisecond + static_cast<Nanos>(v / 4) * (10 * kMillisecond);
  }
  return spec;
}

int Run(int argc, char** argv) {
  BenchScale scale = BenchScale::FromArgs(argc, argv, kClusterFleetFlags);
  UseFleetVmScale(scale);

  const size_t num_levels = std::size(kLevels);
  const size_t num_policies = std::size(kPolicyVariants);
  std::printf("Cluster fleet: %zu policies x %zu fault levels, %d VMs on %d hosts, "
              "%s placement (%zu experiments)\n\n",
              num_policies, num_levels, scale.fleet.vms, scale.fleet.hosts,
              PlacementPolicyName(scale.placement), num_policies * num_levels);

  ExperimentRunner runner(RunnerOptionsFor(scale));
  for (const FaultLevel& level : kLevels) {
    for (const PolicyVariant& variant : kPolicyVariants) {
      runner.Submit(EvacSpecFor(scale, variant, level));
    }
  }
  const std::vector<ExperimentResult> results = runner.RunAll();
  PrintResultTable(results);

  // Headline: fleet throughput retention under the evac schedule relative
  // to the same policy's own fault-free fleet run.
  std::printf("\nFleet throughput retention vs fault-free (higher is better):\n");
  std::printf("  %-14s %12s %12s %10s\n", "policy", "none_tps", "evac_tps", "retention");
  for (size_t p = 0; p < num_policies; ++p) {
    const double none = TotalTps(results[p]);
    const double evac = TotalTps(results[num_policies + p]);
    std::printf("  %-14s %12.0f %12.0f %9.1f%%\n", kPolicyVariants[p].name, none, evac,
                none > 0.0 ? 100.0 * evac / none : 0.0);
    DEMETER_CHECK(none > 0.0) << kPolicyVariants[p].name
                              << ": fault-free fleet produced no work";
  }

  // Migration ledger: the evac schedule must actually drive evacuations,
  // and every VM either stayed put, arrived whole, or bounced back whole.
  std::printf("\nEvacuation ledger (evac level):\n");
  std::printf("  %-14s %8s %9s %8s %9s %11s %12s\n", "policy", "started", "completed",
              "aborted", "cancelled", "pages", "downtime_ms");
  for (size_t p = 0; p < num_policies; ++p) {
    const char* name = kPolicyVariants[p].name;
    const ExperimentResult& result = results[num_policies + p];
    if (!result.ok) {
      std::printf("  %-14s FAILED: %s\n", name, result.error.c_str());
      continue;
    }
    const MetricSnapshot& host = result.host_metrics;
    const uint64_t started = host.CounterValue("cluster/migration/started");
    const uint64_t completed = host.CounterValue("cluster/migration/completed");
    const uint64_t aborted = host.CounterValue("cluster/migration/aborted");
    const uint64_t cancelled = host.CounterValue("cluster/migration/cancelled");
    std::printf("  %-14s %8llu %9llu %8llu %9llu %11llu %12.2f\n", name,
                static_cast<unsigned long long>(started),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(aborted),
                static_cast<unsigned long long>(cancelled),
                static_cast<unsigned long long>(
                    host.CounterValue("cluster/migration/pages_copied")),
                static_cast<double>(host.CounterValue("cluster/migration/downtime_ns_total")) /
                    1e6);
    DEMETER_CHECK(started >= 1) << name << ": the shrink schedule never drove an evacuation";
    // The fleet drains only when no migration is in flight, so every start
    // resolved one way exactly.
    DEMETER_CHECK(started == completed + aborted + cancelled)
        << name << ": unresolved migrations at end of run";
    // Every arrival must be accounted by a VM-side migrated_in counter.
    // Sum over every slot in the fleet snapshot, not just final locations:
    // a VM evacuated twice leaves its first arrival on an intermediate
    // slot it has since migrated out of.
    uint64_t arrivals = 0;
    for (const MetricSample& m : host.samples()) {
      constexpr std::string_view kSuffix = "lifecycle/migrated_in";
      if (m.name.size() > kSuffix.size() &&
          m.name.compare(m.name.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
        arrivals += m.counter;
      }
    }
    DEMETER_CHECK(arrivals == completed)
        << name << ": " << completed << " completed migrations but " << arrivals
        << " VM arrivals";
  }

  // Fleet-accounting cross-check, every level: each spec VM ran to its
  // target exactly once, wherever it ended up.
  for (const ExperimentResult& result : results) {
    if (!result.ok) {
      continue;
    }
    for (size_t v = 0; v < result.vms.size(); ++v) {
      DEMETER_CHECK(result.vms[v].transactions >=
                    result.spec.vms[v].target_transactions)
          << result.spec.name << " vm " << v << " fell short of its target";
    }
  }

  WriteOutputs(scale, results);
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
