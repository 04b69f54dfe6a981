// Per-layer measurements for the traced run: unit costs of each layer's
// public functions on inputs shaped like the workload's, and sums of the
// program's own counters read back from the result snapshots.

#ifndef DEMETER_PERFBENCH_LAYERS_H_
#define DEMETER_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/workloads.h"
#include "src/runner/experiment.h"

namespace demeter::perfbench {

// Metric name -> value. Names are the per_layer names of BENCHMARK.json.
using Values = std::map<std::string, double>;

// Host-time unit costs: each is the median over several timed batches of
// one public call (see layers.cc for the inputs each one is fed).
// cluster.extract_adopt_ms is measured only when `with_cluster` is set.
Values MeasureUnitCosts(const Scale& scale, uint64_t seed, bool with_cluster);

// Sums of simulated counters over every experiment of one batch.
class CounterSums {
 public:
  explicit CounterSums(const std::vector<ExperimentResult>& results) : results_(results) {}

  // Per-VM counter `name` (exact, after the "vm<i>/" prefix) over all VMs.
  uint64_t Vm(std::string_view name) const;
  // Per-VM counters whose name ends in "/<suffix>" (per-vCPU trees).
  uint64_t VmSuffix(std::string_view suffix) const;
  // Host counter `name` ("hyper/ept_populates"), on a bare machine or on
  // every host of a cluster ("host<h>/hyper/ept_populates"), plus exact
  // fleet-level names ("cluster/...").
  uint64_t Host(std::string_view name) const;
  // Count and sum of a per-VM distribution over all VMs.
  void VmDistribution(std::string_view name, uint64_t* count, uint64_t* sum) const;

 private:
  const std::vector<ExperimentResult>& results_;
};

}  // namespace demeter::perfbench

#endif  // DEMETER_PERFBENCH_LAYERS_H_
