// Figure 11: the real-world workload suite with emulated CXL.mem (remote
// DRAM) as the slow tier, following Pond's emulation methodology.
//
// Paper shapes: CXL narrows the tier gap (121.9 ns vs PMEM's 176.6 ns), so
// all improvements shrink; Demeter keeps a >=10% edge over TPP on the
// hotspot workloads (Silo, LibLinear, XSBench).

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
                                            PolicyKind::kNomad};
  std::printf("Figure 11: real-world workloads, DRAM + emulated CXL.mem (execution time, s)\n\n");

  TablePrinter table({"workload", "static", "demeter", "tpp", "memtis", "nomad",
                      "demeter-vs-next-best"});

  ExperimentRunner runner(RunnerOptionsFor(scale));
  for (const std::string& workload : RealWorldWorkloadNames()) {
    for (PolicyKind policy : policies) {
      runner.Submit(SpecFor(scale, workload, policy, scale.concurrent_vms, SmemKind::kCxl));
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
                  (gain >= 0 ? "+" : "") + TablePrinter::Fmt(gain, 1) + "%"});
  }
  table.Print();

  std::printf("\nGeomean speedup of Demeter (CXL tier narrows all gaps):\n");
  for (const char* other : {"static", "tpp", "memtis", "nomad"}) {
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
