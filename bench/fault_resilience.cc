// Fault-resilience sweep: fault intensity x TMM policy x slow-memory kind,
// every VM provisioned through the Demeter double balloon so the balloon
// retry/timeout machinery and the Demeter degradation fallback are both on
// the critical path.
//
// No paper figure covers faults — the testbed hosts never crash on cue —
// but an elastic cloud substrate is judged by how it behaves when guests
// stall, virtqueues fill, and migrations abort. This bench reports, per
// fault level, each policy's throughput retention (vs. its own fault-free
// run) and the Demeter degradation/recovery counters, including the
// no-fallback ablation ("demeter-nofb": DegradationConfig{enabled=false})
// that shows what the watchdog is worth.
//
// This bench owns its fault schedule; the generic --faults flag is rejected
// here to avoid silently mixing two schedules.

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

struct FaultLevel {
  const char* name;
  const char* spec;
};

// Escalating schedules. The "high" level crashes the guest engine for
// 90 ms of every 100 ms — 45 straight epochs lost per window. Silo's
// hotspot drifts ~5% of the keyspace per ~12 ms, so without the host
// fallback each outage leaves placement several full hot-set rotations
// stale before the guest engine returns.
constexpr FaultLevel kLevels[] = {
    {"none", ""},
    {"low", "bdelay=0.1/200us,bdrop=0.05,pebsdrop=0.1,migfail=0.05"},
    {"mid", "bdrop=0.2,stall=5ms/25ms,pebsdrop=0.25,migfail=0.1,vqcap=8"},
    {"high",
     "bdrop=0.5,stall=10ms/40ms,crash=90ms/100ms,pebsdrop=0.5,migfail=0.25,tierex=0.1,vqcap=4"},
};

int Run(int argc, char** argv) {
  BenchScale scale = BenchScale::FromArgs(argc, argv, {.owns_faults = true});
  // Longer runs than the other benches: each run must span many stall and
  // crash windows for degradation/recovery cycles to show up.
  scale.transactions *= 2;
  scale.demeter_epoch = kOutageEpoch;
  // The roster minus tpp-h and damon.
  std::vector<PolicyVariant> policies;
  for (const PolicyVariant& variant : kPolicyVariants) {
    if (variant.kind != PolicyKind::kHTpp && variant.kind != PolicyKind::kDamon) {
      policies.push_back(variant);
    }
  }
  const std::vector<SmemKind> smem_kinds = {SmemKind::kPmem, SmemKind::kCxl};
  const size_t num_levels = std::size(kLevels);
  const size_t num_policies = policies.size();

  std::printf("Fault resilience: %zu fault levels x %zu policies x %zu slow tiers "
              "(%zu experiments)\n\n",
              num_levels, num_policies, smem_kinds.size(),
              num_levels * num_policies * smem_kinds.size());

  ExperimentRunner runner(RunnerOptionsFor(scale));
  for (const FaultLevel& level : kLevels) {
    const FaultPlan plan = BuiltinFaults(level.spec);
    for (SmemKind smem : smem_kinds) {
      for (const PolicyVariant& variant : policies) {
        // silo: YCSB with a drifting hotspot, so a guest engine that loses
        // epochs leaves placement stale — exactly what the host fallback is
        // for (a static-hotspot workload would mask the difference).
        ExperimentSpec spec = SpecFor(scale, "silo", variant.kind, scale.concurrent_vms, smem);
        spec.name = std::string("silo/") + variant.name + "/" + SmemKindName(smem) + "/" +
                    level.name;
        spec.tag = level.name;
        spec.config.faults = plan;
        for (VmSetup& setup : spec.vms) {
          ApplyVariant(variant, setup);
          setup.provision = ProvisionMode::kDemeterBalloon;
          SetOutageDegradation(setup);
        }
        runner.Submit(spec);
      }
    }
  }
  const std::vector<ExperimentResult> results = runner.RunAll();

  PrintResultTable(results);

  // Headline: per (policy, tier), throughput retention at each fault level
  // relative to that policy's own fault-free run, plus Demeter's recovery
  // behaviour (time degraded and host-side migrations while degraded).
  std::printf("\nThroughput retention vs fault-free (higher is better):\n");
  std::printf("  %-14s %-5s", "policy", "smem");
  for (const FaultLevel& level : kLevels) {
    std::printf(" %9s", level.name);
  }
  std::printf("\n");
  // Submission order: level-major, then smem, then policy.
  const size_t per_level = smem_kinds.size() * num_policies;
  for (size_t p = 0; p < num_policies; ++p) {
    for (size_t s = 0; s < smem_kinds.size(); ++s) {
      std::printf("  %-14s %-5s", policies[p].name, SmemKindName(smem_kinds[s]));
      double baseline = 0.0;
      for (size_t l = 0; l < num_levels; ++l) {
        const double tps = TotalTps(results[l * per_level + s * num_policies + p]);
        if (l == 0) {
          baseline = tps;
          std::printf(" %8.0f ", tps);
        } else {
          std::printf(" %8.1f%%", baseline > 0.0 ? 100.0 * tps / baseline : 0.0);
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\nDemeter degradation behaviour (summed over VMs):\n");
  std::printf("  %-14s %-5s %-5s %10s %10s %12s %10s\n", "policy", "smem", "level", "entries",
              "recovered", "degraded_ms", "host_migr");
  for (size_t l = 1; l < num_levels; ++l) {
    for (size_t s = 0; s < smem_kinds.size(); ++s) {
      for (size_t p = 0; p < num_policies; ++p) {
        if (policies[p].kind != PolicyKind::kDemeter) {
          continue;
        }
        const ExperimentResult& result = results[l * per_level + s * num_policies + p];
        std::printf("  %-14s %-5s %-5s %10llu %10llu %12.1f %10llu\n", policies[p].name,
                    SmemKindName(smem_kinds[s]), kLevels[l].name,
                    static_cast<unsigned long long>(
                        SumVmCounter(result, "policy/degraded_entries")),
                    static_cast<unsigned long long>(SumVmCounter(result, "policy/recoveries")),
                    static_cast<double>(SumVmCounter(result, "policy/degraded_ns")) / 1e6,
                    static_cast<unsigned long long>(
                        SumVmCounter(result, "policy/host_migrations")));
      }
    }
  }

  WriteOutputs(scale, results);
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
