// The benchmark's three workloads, generated in-process from one seed.
//
// Each workload is a batch of ExperimentSpecs: a fixed amount of simulated
// work (every VM runs to a transaction target), neither an open nor a
// closed loop. The seed becomes every spec's base seed (MachineConfig::seed),
// which the runner folds into each experiment's content-hash seed, so the
// same seed always yields the same simulated inputs and outputs.

#ifndef DEMETER_PERFBENCH_WORKLOADS_H_
#define DEMETER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/experiment.h"

namespace demeter::perfbench {

enum class WorkloadKind { kTierRead, kOvercommitWrite, kFleetHa };

const char* WorkloadName(WorkloadKind kind);
std::optional<WorkloadKind> WorkloadFromName(const std::string& name);

// Geometry shared by every workload. `tiny` shrinks the simulated work to
// a fraction of a second for the self-test; the shapes stay the same.
struct Scale {
  uint64_t vm_bytes = 16 * kMiB;
  double footprint_ratio = 0.75;
  uint64_t xsbench_txns = 48000;
  uint64_t btree_txns = 180000;
  uint64_t silo_txns = 80000;
  uint64_t gups_txns = 440000;
  int vcpus = 2;
  size_t batch_ops = 512;  // MachineConfig::batch_ops default.
  uint64_t demeter_sample_period = 97;
  Nanos policy_period = 15 * kMillisecond;
  Nanos demeter_epoch = 10 * kMillisecond;

  static Scale For(bool tiny);
  uint64_t footprint() const;
  uint64_t TargetFor(const std::string& workload) const;
};

// Worker threads the runner gets. tier-read and overcommit-write are
// measured at --jobs=1; fleet-ha is one experiment with a fixed budget of
// kFleetCoreBudget cores (Cluster::Run steps its hosts on one of them).
inline constexpr int kFleetCoreBudget = 2;
int CoreBudget(WorkloadKind kind);

std::vector<ExperimentSpec> BuildSpecs(WorkloadKind kind, uint64_t seed, const Scale& scale);

// The seven TMM policies of the single-host comparison, in report order.
const std::vector<PolicyKind>& AllPolicies();

}  // namespace demeter::perfbench

#endif  // DEMETER_PERFBENCH_WORKLOADS_H_
