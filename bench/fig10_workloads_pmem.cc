// Figure 10 (and §5.4): average execution time across the seven real-world
// workloads on DRAM + PMEM tiering, for every guest-delegated design plus
// the hypervisor-based TPP-H and unmanaged first-touch placement.
//
// Paper shapes to reproduce: Demeter best or second-best everywhere, up to
// 2.2x over the worst alternative and ~28% geomean over the next-best
// guest design (TPP); Nomad consistently worst (migration thrashing);
// Memtis weak on static-hotspot workloads; TPP closest on graph workloads;
// TPP-H behind its guest-based counterpart on most workloads (§5.4).

#include <cstdio>
#include <map>
#include <vector>

#include "bench/common.h"
#include "src/base/logging.h"
#include "src/base/stats.h"
#include "src/harness/table.h"

namespace demeter {
namespace {

int Run(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  const std::vector<PolicyKind> policies = {PolicyKind::kStatic, PolicyKind::kDemeter,
                                            PolicyKind::kTpp,    PolicyKind::kMemtis,
                                            PolicyKind::kNomad,  PolicyKind::kHTpp};
  std::printf("Figure 10: real-world workloads, DRAM + PMEM (execution time, seconds)\n\n");

  TablePrinter table({"workload", "static", "demeter", "tpp", "memtis", "nomad", "tpp-h",
                      "demeter-vs-next-best"});

  // Every (workload, policy) cell is an independent simulation: fan them all
  // out through the runner (results come back in spec order).
  ExperimentRunner runner(RunnerOptionsFor(scale));
  for (const std::string& workload : RealWorldWorkloadNames()) {
    for (PolicyKind policy : policies) {
      runner.Submit(SpecFor(scale, workload, policy, scale.concurrent_vms));
    }
  }
  const std::vector<ExperimentResult> results = runner.RunAll();

  std::map<std::string, std::map<std::string, double>> elapsed;
  size_t next = 0;
  for (const std::string& workload : RealWorldWorkloadNames()) {
    for (PolicyKind policy : policies) {
      const ExperimentResult& result = results[next++];
      DEMETER_CHECK(result.ok) << result.spec.name << ": " << result.error;
      elapsed[workload][PolicyKindName(policy)] = result.MeanElapsedSeconds();
    }
    const auto& row = elapsed[workload];
    double next_best = 1e300;
    for (const auto& [name, secs] : row) {
      if (name != "demeter" && name != "static" && secs < next_best) {
        next_best = secs;
      }
    }
    const double gain = (next_best - row.at("demeter")) / next_best * 100.0;
    table.AddRow({workload, TablePrinter::Fmt(row.at("static"), 3),
                  TablePrinter::Fmt(row.at("demeter"), 3), TablePrinter::Fmt(row.at("tpp"), 3),
                  TablePrinter::Fmt(row.at("memtis"), 3), TablePrinter::Fmt(row.at("nomad"), 3),
                  TablePrinter::Fmt(row.at("tpp-h"), 3),
                  (gain >= 0 ? "+" : "") + TablePrinter::Fmt(gain, 1) + "%"});
  }
  table.Print();

  // Geomean speedups of Demeter vs each alternative (paper: +28% vs TPP,
  // +16% vs hypervisor-based).
  std::printf("\nGeomean speedup of Demeter:\n");
  for (const char* other : {"static", "tpp", "memtis", "nomad", "tpp-h"}) {
    std::vector<double> ratios;
    for (const std::string& workload : RealWorldWorkloadNames()) {
      ratios.push_back(elapsed[workload][other] / elapsed[workload]["demeter"]);
    }
    std::printf("  vs %-8s %.2fx\n", other, GeometricMean(ratios));
  }
  WriteOutputs(scale, results);
  return 0;
}

}  // namespace
}  // namespace demeter

int main(int argc, char** argv) { return demeter::Run(argc, argv); }
