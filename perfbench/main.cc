// Host-time benchmark of the Demeter simulator.
//
// Runs one workload (see workloads.h) from one seed and prints one JSON
// line: the run's stamp, a digest of every simulated per-VM counter, the
// correctness outcome and every metric with its unit. perfbench/run.py
// builds this binary and reduces that line to the benchmark's contract.
//
//   perfbench --workload tier-read --seed 1 --seconds 20 --trace 0
//             [--tiny] [--out-dir DIR] [--commit ID]
//
// Untraced (--trace 0): the workload batch is repeated until --seconds of
// host time have passed and the end-to-end metrics are medians over those
// repetitions. Experiments go through ExperimentRunner with a run_fn that
// is RunExperiment with Machine::Run() split into StartRun() +
// StepUntil(kNoHorizon) + FinishRun(), timed at those boundaries; the
// same specs then go once through the stock RunExperiment, whose counter
// digest must match.
//
// Traced (--trace 1): one repetition with host-time spans around each call
// into a layer (Machine stepped in fixed simulated slices), the program's
// own counters read back from SnapshotMetrics(), and unit costs of each
// layer's public functions (layers.cc). Spans are written to
// DIR/spans-<workload>.json as Chrome trace events.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/base/hash.h"
#include "src/base/histogram.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"

namespace demeter::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Simulated length of one StepUntil slice in the traced run.
constexpr Nanos kSliceNs = 2 * kMillisecond;
// Repetition cap for the untraced loop (a guard, never reached at the
// default scale and run length).
constexpr int kMaxReps = 1000;

struct Args {
  WorkloadKind workload = WorkloadKind::kTierRead;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* prog, const char* error) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload tier-read|overcommit-write|fleet-ha --seed N\n"
               "          --seconds S --trace 0|1 [--tiny] [--out-dir DIR] [--commit ID]\n",
               prog, error, prog);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(argv[0], ("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const std::optional<WorkloadKind> kind = WorkloadFromName(value);
      if (!kind.has_value()) {
        Usage(argv[0], ("unknown workload " + value).c_str());
      }
      args.workload = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage(argv[0], "--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Usage(argv[0], ("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage(argv[0], ("bad number for " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage(argv[0], "--workload is required");
  }
  return args;
}

int CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

// ---- spans -------------------------------------------------------------------

// Host-time spans of the traced run, kept in memory and written at exit.
class SpanLog {
 public:
  int Begin(const std::string& name, int parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, Micros(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = Micros();
  }

  // Chrome trace_event JSON; each event's args name its parent span.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                   s.parent);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  double Micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  const Clock::time_point origin_ = Clock::now();
  std::mutex mu_;  // Guards spans_ (run_fn may run on a runner worker).
  std::vector<Span> spans_;
};

// Times one phase; also records it as a span when a log is given.
class Phase {
 public:
  Phase(SpanLog* log, const std::string& name, int parent)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : -1) {}
  int id() const { return id_; }
  double Stop() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  SpanLog* log_;
  int id_;
  const Clock::time_point start_ = Clock::now();
};

// ---- one batch ---------------------------------------------------------------

// Host time of one experiment, split at the harness's phase boundaries.
struct ExpTimes {
  double run_fn_s = 0.0;
  double setup_s = 0.0;  // Construction + AddVm + StartRun (single host).
  double start_run_s = 0.0;
  double step_s = 0.0;  // StepUntil; Cluster::Run on a fleet.
  double finish_run_s = 0.0;
  double cluster_run_s = 0.0;
  double snapshot_s = 0.0;
  double check_s = 0.0;
  uint64_t run_accesses = 0;  // Simulated accesses inside the timed run.
  double first_slice_s = 0.0;
  uint64_t first_slice_accesses = 0;
  std::string invariant_error;

  double RunSeconds() const { return step_s + finish_run_s; }
};

uint64_t MachineAccesses(Machine& machine) {
  uint64_t sum = 0;
  for (int i = 0; i < machine.num_vms(); ++i) {
    sum += machine.vm(i).stats().accesses;
  }
  return sum;
}

// RunExperiment (src/runner/experiment.cc) with its phases timed.
ExperimentResult RunPhaseSplit(const ExperimentSpec& spec, SpanLog* log, int parent,
                               ExpTimes* t) {
  Phase whole(log, spec.name, parent);
  ExperimentResult result;
  result.spec = spec;
  result.seed = DeriveSeed(spec);
  MachineConfig config = spec.config;
  config.seed = result.seed;

  if (spec.cluster.num_hosts > 0) {
    Phase setup(log, "cluster.setup", whole.id());
    Cluster cluster(config, spec.cluster);
    for (const VmSetup& vm : spec.vms) {
      cluster.AddVm(vm);
    }
    t->setup_s = setup.Stop();
    // Host StartRun happens inside Cluster::Run and counts as run time.
    Phase run(log, "cluster.run", whole.id());
    cluster.Run();
    t->cluster_run_s = run.Stop();
    t->step_s = t->cluster_run_s;
    for (int i = 0; i < cluster.num_vms(); ++i) {
      result.vms.push_back(cluster.result(i));
      t->run_accesses += result.vms.back().metrics.CounterValue("stats/accesses");
    }
    Phase snap(log, "telemetry.snapshot", whole.id());
    const MetricSnapshot snapshot = cluster.SnapshotMetrics();
    result.host_metrics = spec.cluster.num_hosts == 1
                              ? snapshot.FilterPrefix("host/", /*strip=*/true)
                              : snapshot;
    t->snapshot_s = snap.Stop();
  } else {
    Phase setup(log, "harness.setup", whole.id());
    Machine machine(config);
    for (const VmSetup& vm : spec.vms) {
      machine.AddVm(vm);
    }
    Phase start(log, "harness.start_run", setup.id());
    machine.StartRun();
    t->start_run_s = start.Stop();
    t->setup_s = setup.Stop();
    const uint64_t accesses_at_start = MachineAccesses(machine);

    Phase step(log, "harness.step", whole.id());
    if (log == nullptr) {
      machine.StepUntil(Machine::kNoHorizon);
    } else {
      // Fixed simulated slices from the earliest vCPU clock, byte-identical
      // to one kNoHorizon call. The first slice follows the init pass that
      // StartRun ran, so it shows warm-up apart from the steady state.
      Nanos horizon = machine.MinActiveClock() + kSliceNs;
      Phase first(log, "harness.first_slice", step.id());
      bool more = machine.StepUntil(horizon);
      t->first_slice_s = first.Stop();
      t->first_slice_accesses = MachineAccesses(machine) - accesses_at_start;
      while (more) {
        horizon += kSliceNs;
        more = machine.StepUntil(horizon);
      }
    }
    t->step_s = step.Stop();
    Phase finish(log, "harness.finish_run", whole.id());
    machine.FinishRun();
    t->finish_run_s = finish.Stop();
    t->run_accesses = MachineAccesses(machine) - accesses_at_start;

    for (int i = 0; i < machine.num_vms(); ++i) {
      result.vms.push_back(machine.result(i));
    }
    Phase snap(log, "telemetry.snapshot", whole.id());
    result.host_metrics = machine.SnapshotMetrics().FilterPrefix("host/", /*strip=*/true);
    t->snapshot_s = snap.Stop();
    if (log != nullptr) {
      Phase check(log, "fault.check_invariants", whole.id());
      const InvariantReport report = machine.CheckInvariants();
      t->check_s = check.Stop();
      if (!report.ok()) {
        t->invariant_error = report.Join();
      }
    }
  }
  result.ok = true;
  t->run_fn_s = whole.Stop();
  return result;
}

struct Batch {
  std::vector<ExperimentResult> results;
  std::vector<ExpTimes> times;
  double wall_s = 0.0;
  double run_all_s = 0.0;
  double sink_s = 0.0;

  double Sum(double ExpTimes::*field) const {
    double sum = 0.0;
    for (const ExpTimes& t : times) {
      sum += t.*field;
    }
    return sum;
  }
  uint64_t RunAccesses() const {
    uint64_t sum = 0;
    for (const ExpTimes& t : times) {
      sum += t.run_accesses;
    }
    return sum;
  }
  double NsPerAccess() const {
    const uint64_t accesses = RunAccesses();
    return accesses == 0 ? 0.0
                         : (Sum(&ExpTimes::step_s) + Sum(&ExpTimes::finish_run_s)) * 1e9 /
                               static_cast<double>(accesses);
  }
};

// One workload batch, from building the specs to writing the results.
Batch RunBatch(const Args& args, const Scale& scale, const std::string& stamp, SpanLog* log) {
  Batch batch;
  Phase wall(log, WorkloadName(args.workload), -1);
  const std::vector<ExperimentSpec> specs = BuildSpecs(args.workload, args.seed, scale);
  batch.times.resize(specs.size());
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < specs.size(); ++i) {
    slot[specs[i].name] = i;
  }
  RunnerOptions options;
  options.jobs = std::min(CoreBudget(args.workload), CpusAvailable());
  options.max_attempts = 1;  // A failure is counted, never retried away.
  options.progress = false;
  int run_all_span = -1;
  options.run_fn = [&](const ExperimentSpec& spec) {
    return RunPhaseSplit(spec, log, run_all_span, &batch.times[slot.at(spec.name)]);
  };
  ExperimentRunner runner(options);
  runner.SubmitAll(specs);
  Phase run_all(log, "runner.run_all", wall.id());
  run_all_span = run_all.id();
  batch.results = runner.RunAll();
  batch.run_all_s = run_all.Stop();

  Phase sink(log, "telemetry.sink", wall.id());
  const std::string path =
      args.out_dir + "/results-" + WorkloadName(args.workload) + ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "{\"stamp\":%s}\n", stamp.c_str());
    JsonLinesSink jsonl(out);
    EmitResults(batch.results, {&jsonl});
    std::fclose(out);
  }
  batch.sink_s = sink.Stop();
  batch.wall_s = wall.Stop();
  if (out == nullptr) {
    batch.results.clear();  // Reported as a failed batch by the checks.
  }
  return batch;
}

// ---- correctness -------------------------------------------------------------

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(uint64_t ops, const std::string& error) {
    failed += ops;
    if (errors.size() < 20) {
      errors.push_back(error);
    }
  }
};

uint64_t VmCount(const std::vector<ExperimentSpec>& specs) {
  uint64_t n = 0;
  for (const ExperimentSpec& spec : specs) {
    n += spec.vms.size();
  }
  return n;
}

// One operation is one VM run to its transaction target. Every experiment
// must be ok with every VM at its target; a fleet must also balance its
// migration and restart ledgers and lose no VM.
void CheckBatch(const Batch& batch, size_t num_specs, uint64_t num_vms, Outcome* out) {
  out->attempted += num_vms;
  if (batch.results.size() != num_specs) {
    out->Fail(num_vms, "batch produced no results (results file not writable?)");
    return;
  }
  for (size_t e = 0; e < batch.results.size(); ++e) {
    const ExperimentResult& r = batch.results[e];
    const uint64_t n = r.spec.vms.size();
    if (!r.ok) {
      out->Fail(n, r.spec.name + ": " + r.error);
      continue;
    }
    if (r.vms.size() != n) {
      out->Fail(n, r.spec.name + ": result count differs from the spec's VM count");
      continue;
    }
    if (!batch.times[e].invariant_error.empty()) {
      out->Fail(n, r.spec.name + ": invariants: " + batch.times[e].invariant_error);
      continue;
    }
    if (r.spec.cluster.num_hosts > 0) {
      const MetricSnapshot& m = r.host_metrics;
      const uint64_t started = m.CounterValue("cluster/migration/started");
      const uint64_t resolved = m.CounterValue("cluster/migration/completed") +
                                m.CounterValue("cluster/migration/aborted") +
                                m.CounterValue("cluster/migration/cancelled") +
                                m.CounterValue("cluster/migration/fenced");
      const uint64_t killed = m.CounterValue("cluster/ha/vms_killed");
      const uint64_t accounted = m.CounterValue("cluster/ha/vms_restarted") +
                                 m.CounterValue("cluster/ha/restart_queue_depth") +
                                 m.CounterValue("cluster/ha/vms_lost");
      if (started != resolved || killed != accounted) {
        out->Fail(n, r.spec.name + ": fleet ledgers unbalanced (migrations " +
                         std::to_string(started) + " vs " + std::to_string(resolved) +
                         ", kills " + std::to_string(killed) + " vs " +
                         std::to_string(accounted) + ")");
        continue;
      }
      const uint64_t lost = m.CounterValue("cluster/ha/vms_lost");
      if (lost > 0) {
        out->Fail(lost, r.spec.name + ": " + std::to_string(lost) + " VMs lost");
        continue;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (r.vms[i].transactions < r.spec.vms[i].target_transactions) {
        out->Fail(1, r.spec.name + ": vm" + std::to_string(i) + " short of its target (" +
                         std::to_string(r.vms[i].transactions) + " < " +
                         std::to_string(r.spec.vms[i].target_transactions) + ")");
      }
    }
  }
}

void HashSnapshot(HashStream& h, const MetricSnapshot& snapshot) {
  for (const MetricSample& s : snapshot.samples()) {
    h.Str(s.name).I32(static_cast<int>(s.kind)).U64(s.counter).F64(s.gauge);
    const DistributionSummary& d = s.distribution;
    h.U64(d.count).U64(d.sum).U64(d.min).U64(d.max).U64(d.p50).U64(d.p99);
  }
}

// Digest of every simulated per-VM result and counter (and the host's).
uint64_t Digest(const std::vector<ExperimentResult>& results) {
  HashStream h;
  for (const ExperimentResult& r : results) {
    h.Str(r.spec.name).U64(r.seed).Bool(r.ok).U64(r.vms.size());
    for (const VmRunResult& vm : r.vms) {
      h.Str(vm.workload).Str(vm.policy).U64(vm.transactions).F64(vm.elapsed_s);
      h.F64(vm.fmem_access_fraction).F64(vm.MgmtCores());
      h.U64(vm.txn_latency_ns.count()).U64(vm.txn_latency_ns.sum());
      h.U64(vm.txn_latency_ns.Percentile(99));
      HashSnapshot(h, vm.metrics);
    }
    HashSnapshot(h, r.host_metrics);
  }
  return h.Digest();
}

// ---- metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// The p-th percentile, interpolated linearly between the two knots of the
// histogram's CDF that bracket it, so it moves with the data instead of
// jumping between log-bucket edges (1/16 apart). The knots are found by
// bisecting Percentile() over p.
double InterpolatedPercentile(const Histogram& h, double p) {
  const uint64_t edge = h.Percentile(p);
  if (h.Percentile(0.0) >= edge) {
    return static_cast<double>(edge);
  }
  double below = 0.0;  // Percentile(below) < edge.
  double at = p;       // Percentile(at) == edge.
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (below + at);
    (h.Percentile(mid) < edge ? below : at) = mid;
  }
  double last = p;  // Highest percentile still at edge.
  if (h.Percentile(100.0) == edge) {
    last = 100.0;
  } else {
    double above = 100.0;
    for (int i = 0; i < 60; ++i) {
      const double mid = 0.5 * (last + above);
      (h.Percentile(mid) <= edge ? last : above) = mid;
    }
  }
  const double prev = static_cast<double>(h.Percentile(below));
  return prev + (static_cast<double>(edge) - prev) * Ratio(p - below, last - below);
}

// Simulated end-to-end metrics; deterministic for a fixed seed.
void SimMetrics(const std::vector<ExperimentResult>& results, Metrics* m) {
  double tps = 0.0;
  double mgmt = 0.0;
  double fmem = 0.0;
  double accesses = 0.0;
  uint64_t vms = 0;
  Histogram latency;
  for (const ExperimentResult& r : results) {
    double makespan = 0.0;
    double txns = 0.0;
    for (const VmRunResult& vm : r.vms) {
      const double boot_s = static_cast<double>(vm.metrics.CounterValue("lifecycle/boot_ns")) / 1e9;
      makespan = std::max(makespan, boot_s + vm.elapsed_s);
      txns += static_cast<double>(vm.transactions);
      mgmt += vm.MgmtCores();
      const double a = static_cast<double>(vm.metrics.CounterValue("stats/accesses"));
      fmem += vm.fmem_access_fraction * a;
      accesses += a;
      latency.Merge(vm.txn_latency_ns);
      ++vms;
    }
    tps += Ratio(txns, makespan);
  }
  (*m)["sim_tps"] = {tps, "txn/s"};
  (*m)["sim_mgmt_cores"] = {Ratio(mgmt, static_cast<double>(vms)), "cores"};
  (*m)["sim_fmem_frac"] = {Ratio(fmem, accesses), "ratio"};
  (*m)["sim_p99_txn_us"] = {InterpolatedPercentile(latency, 99.0) / 1000.0, "us"};
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Per-layer metrics of one traced batch.
void LayerMetrics(const Batch& batch, const Scale& scale, const Values& unit, Metrics* m) {
  const CounterSums c(batch.results);
  const auto count = [m](const std::string& name, double v) { (*m)[name] = {v, "count"}; };
  const auto ratio = [m](const std::string& name, double v) { (*m)[name] = {v, "ratio"}; };

  (*m)["harness.start_run_s"] = {batch.Sum(&ExpTimes::start_run_s), "s"};
  (*m)["harness.finish_run_s"] = {batch.Sum(&ExpTimes::finish_run_s), "s"};
  (*m)["harness.step_s"] = {batch.Sum(&ExpTimes::step_s), "s"};
  uint64_t first_accesses = 0;
  for (const ExpTimes& t : batch.times) {
    first_accesses += t.first_slice_accesses;
  }
  const double first_s = batch.Sum(&ExpTimes::first_slice_s);
  (*m)["harness.first_slice_ns_per_access"] = {
      Ratio(first_s * 1e9, static_cast<double>(first_accesses)), "ns"};
  (*m)["harness.steady_ns_per_access"] = {
      first_accesses == 0 ? 0.0
                          : Ratio((batch.Sum(&ExpTimes::step_s) - first_s) * 1e9,
                                  static_cast<double>(batch.RunAccesses() - first_accesses)),
      "ns"};
  for (const PolicyKind policy : AllPolicies()) {
    double ns = 0.0;
    for (size_t e = 0; e < batch.results.size(); ++e) {
      const ExpTimes& t = batch.times[e];
      if (batch.results[e].spec.cluster.num_hosts == 0 &&
          batch.results[e].spec.tag == PolicyKindName(policy)) {
        ns = Ratio(t.RunSeconds() * 1e9, static_cast<double>(t.run_accesses));
      }
    }
    (*m)[std::string("harness.ns_per_access.") + PolicyKindName(policy)] = {ns, "ns"};
  }

  // Estimated shares of stepping time: count x unit cost / harness.step_s.
  const double step_ns = batch.Sum(&ExpTimes::step_s) * 1e9;
  double workloads_ns = 0.0;
  double pipeline_ns = 0.0;
  for (const ExperimentResult& r : batch.results) {
    for (const VmRunResult& vm : r.vms) {
      const double a = static_cast<double>(vm.metrics.CounterValue("stats/accesses"));
      workloads_ns += a * unit.at("workloads.next_batch_ns_per_op." + vm.workload);
      const bool writes = vm.workload == "silo" || vm.workload == "gups";
      pipeline_ns +=
          a * unit.at(writes ? "hyper.execute_batch_ns_per_op.write"
                             : "hyper.execute_batch_ns_per_op.read");
    }
  }
  const double footprint_pages = static_cast<double>(scale.footprint() / kPageSize);
  const double tmm_ns = static_cast<double>(c.Vm("policy/scans_run")) * footprint_pages *
                        unit.at("tmm.scan_and_clear_ns_per_page");
  const double other_ns =
      static_cast<double>(c.VmSuffix("pebs/events_counted")) * unit.at("pebs.on_access_ns") +
      static_cast<double>(c.VmSuffix("pebs/records_written")) *
          unit.at("core.range_tree_record_ns") +
      static_cast<double>(c.Vm("policy/epochs_run")) * unit.at("core.range_tree_end_epoch_us") *
          1e3 +
      static_cast<double>(c.Host("swap/stores")) * unit.at("swap.slot_store_ns") +
      static_cast<double>(c.Host("swap/loads")) * unit.at("swap.slot_load_ns") +
      static_cast<double>(c.Vm("balloon/requests")) * unit.at("balloon.request_us") * 1e3;
  ratio("workloads.share", Ratio(workloads_ns, step_ns));
  ratio("hyper.pipeline_share", Ratio(pipeline_ns, step_ns));
  ratio("tmm.share", Ratio(tmm_ns, step_ns));
  ratio("harness.unexplained_share",
        1.0 - Ratio(workloads_ns + pipeline_ns + tmm_ns + other_ns, step_ns));

  for (const auto& [name, value] : unit) {
    const std::string_view n = name;
    const char* unit_name = n.ends_with("_us") ? "us" : n.ends_with("_ms") ? "ms" : "ns";
    (*m)[name] = {value, unit_name};
  }

  count("hyper.ept_faults", static_cast<double>(c.Vm("stats/ept_faults")));
  count("hyper.ept_populates", static_cast<double>(c.Host("hyper/ept_populates")));
  count("hyper.tier_fallbacks", static_cast<double>(c.Host("hyper/tier_fallbacks")));
  count("guest.faults", static_cast<double>(c.Vm("kernel/faults")));
  count("guest.reclaim_events", static_cast<double>(c.Vm("kernel/reclaim_events")));

  const double hits = static_cast<double>(c.Vm("tlb/hits"));
  const double misses = static_cast<double>(c.Vm("tlb/misses"));
  ratio("mmu.tlb_hit_rate", Ratio(hits, hits + misses));
  count("mmu.tlb_misses", misses);
  count("mmu.full_flushes", static_cast<double>(c.Vm("tlb/full_flushes")));
  count("mmu.single_flushes", static_cast<double>(c.Vm("tlb/single_flushes")));
  uint64_t walks = 0;
  uint64_t walk_ns = 0;
  c.VmDistribution("mmu/walk_cost_ns", &walks, &walk_ns);
  (*m)["mmu.walk_cost_ns"] = {Ratio(static_cast<double>(walk_ns), static_cast<double>(walks)),
                              "ns"};

  const double fmem = static_cast<double>(c.Vm("stats/fmem_accesses"));
  const double smem = static_cast<double>(c.Vm("stats/smem_accesses"));
  const double swap = static_cast<double>(c.Vm("stats/swap_accesses"));
  ratio("mem.fmem_hit_rate", Ratio(fmem, fmem + smem + swap));
  count("mem.smem_accesses", smem);
  count("mem.swap_accesses", swap);

  count("pebs.records_written", static_cast<double>(c.VmSuffix("pebs/records_written")));
  count("pebs.pmis", static_cast<double>(c.VmSuffix("pebs/pmis")));
  count("pebs.records_dropped", static_cast<double>(c.VmSuffix("pebs/records_dropped")));

  count("core.epochs_run", static_cast<double>(c.Vm("policy/epochs_run")));
  count("core.pages_promoted", static_cast<double>(c.Vm("stats/pages_promoted")));
  count("core.pages_demoted", static_cast<double>(c.Vm("stats/pages_demoted")));
  count("tmm.scans_run", static_cast<double>(c.Vm("policy/scans_run")));

  const double inflated = static_cast<double>(c.Vm("balloon/pages_inflated"));
  const double deflated = static_cast<double>(c.Vm("balloon/pages_deflated"));
  const double short_pages = static_cast<double>(c.Vm("balloon/pages_short"));
  count("balloon.requests", static_cast<double>(c.Vm("balloon/requests")));
  count("balloon.pages_inflated", inflated);
  count("balloon.pages_deflated", deflated);
  const double requested = inflated + deflated + short_pages;
  ratio("balloon.fill_ratio", requested == 0.0 ? 0.0 : 1.0 - short_pages / requested);

  count("swap.stores", static_cast<double>(c.Host("swap/stores")));
  count("swap.loads", static_cast<double>(c.Host("swap/loads")));
  count("swap.retries", static_cast<double>(c.Host("swap/retries")));
  count("swap.writeback_stalls", static_cast<double>(c.Host("swap/writeback_stalls")));

  count("overcommit.ticks", static_cast<double>(c.Host("overcommit/ticks")));
  count("overcommit.spill_requests", static_cast<double>(c.Host("overcommit/spill_requests")));
  count("overcommit.pages_requested", static_cast<double>(c.Host("overcommit/pages_requested")));
  count("overcommit.pages_refilled", static_cast<double>(c.Host("overcommit/pages_refilled")));

  (*m)["cluster.run_s"] = {batch.Sum(&ExpTimes::cluster_run_s), "s"};
  const double started = static_cast<double>(c.Host("cluster/migration/started"));
  const double completed = static_cast<double>(c.Host("cluster/migration/completed"));
  count("cluster.migrations_started", started);
  count("cluster.migrations_completed", completed);
  count("cluster.migrations_aborted", static_cast<double>(c.Host("cluster/migration/aborted")));
  count("cluster.migrations_fenced", static_cast<double>(c.Host("cluster/migration/fenced")));
  ratio("cluster.migration_success_ratio", Ratio(completed, started));
  count("cluster.pages_copied", static_cast<double>(c.Host("cluster/migration/pages_copied")));
  count("cluster.precopy_rounds", static_cast<double>(c.Host("cluster/migration/precopy_rounds")));
  count("cluster.vms_killed", static_cast<double>(c.Host("cluster/ha/vms_killed")));
  count("cluster.vms_restarted", static_cast<double>(c.Host("cluster/ha/vms_restarted")));
  count("cluster.vms_lost", static_cast<double>(c.Host("cluster/ha/vms_lost")));

  (*m)["runner.overhead_s"] = {batch.run_all_s - batch.Sum(&ExpTimes::run_fn_s), "s"};
  (*m)["telemetry.snapshot_ms"] = {(batch.Sum(&ExpTimes::snapshot_s) + batch.sink_s) * 1e3,
                                   "ms"};
  (*m)["fault.check_invariants_ms"] = {batch.Sum(&ExpTimes::check_s) * 1e3, "ms"};
}

// ---- output ------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Stamp(const Args& args) {
  return "{\"commit\":" + JsonString(args.commit) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"nproc\":" + std::to_string(CpusAvailable()) +
         ",\"core_budget\":" + std::to_string(CoreBudget(args.workload)) +
         ",\"scale\":" + JsonString(args.tiny ? "tiny" : "default") + "}";
}

void PrintResult(const Args& args, const std::string& stamp, int reps, uint64_t digest,
                 const Outcome& outcome, const Metrics& metrics) {
  std::string line = "{\"workload\":" + JsonString(WorkloadName(args.workload)) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"trace\":" + (args.trace ? "true" : "false") +
                     ",\"reps\":" + std::to_string(reps) + ",\"stamp\":" + stamp;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  line += ",\"digest\":\"" + std::string(hex) + "\"";
  line += std::string(",\"correct\":") + (outcome.failed == 0 ? "true" : "false");
  line += ",\"attempted\":" + std::to_string(outcome.attempted);
  line += ",\"failed\":" + std::to_string(outcome.failed) + ",\"errors\":[";
  for (size_t i = 0; i < outcome.errors.size(); ++i) {
    line += (i == 0 ? "" : ",") + JsonString(outcome.errors[i]);
  }
  line += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    line += (first ? "" : ",") + JsonString(name) + ":{\"value\":" + value +
            ",\"unit\":" + JsonString(metric.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Scale scale = Scale::For(args.tiny);
  const std::string stamp = Stamp(args);
  const std::vector<ExperimentSpec> specs = BuildSpecs(args.workload, args.seed, scale);
  const uint64_t num_vms = VmCount(specs);
  Outcome outcome;
  Metrics metrics;

  if (args.trace) {
    SpanLog log;
    const Batch batch = RunBatch(args, scale, stamp, &log);
    metrics["peak_rss_mib"] = {PeakRssMib(), "MiB"};
    CheckBatch(batch, specs.size(), num_vms, &outcome);
    const int units_span = log.Begin("unit_costs", -1);
    const Values unit =
        MeasureUnitCosts(scale, args.seed, args.workload == WorkloadKind::kFleetHa);
    log.End(units_span);
    const std::string spans_path =
        args.out_dir + "/spans-" + WorkloadName(args.workload) + ".json";
    if (!log.Write(spans_path)) {
      outcome.Fail(0, "cannot write " + spans_path);
    }
    metrics["wall_s"] = {batch.wall_s, "s"};
    metrics["setup_s"] = {batch.Sum(&ExpTimes::setup_s), "s"};
    metrics["ns_per_access"] = {batch.NsPerAccess(), "ns"};
    SimMetrics(batch.results, &metrics);
    if (batch.results.size() == specs.size()) {
      LayerMetrics(batch, scale, unit, &metrics);
    }
    metrics["ok_frac"] = {1.0 - Ratio(static_cast<double>(outcome.failed),
                                      static_cast<double>(outcome.attempted)),
                          "ratio"};
    PrintResult(args, stamp, 1, Digest(batch.results), outcome, metrics);
    return 0;
  }

  std::vector<double> wall;
  std::vector<double> setup;
  std::vector<double> ns_per_access;
  uint64_t digest = 0;
  std::vector<ExperimentResult> results;
  const Clock::time_point start = Clock::now();
  do {
    Batch batch = RunBatch(args, scale, stamp, nullptr);
    CheckBatch(batch, specs.size(), num_vms, &outcome);
    const uint64_t d = Digest(batch.results);
    if (wall.empty()) {
      digest = d;
      // The peak of one batch. Later repetitions run on fresh runner
      // threads whose malloc arenas fragment differently, so a peak over
      // all of them would depend on how many fit in the run.
      metrics["peak_rss_mib"] = {PeakRssMib(), "MiB"};
    } else if (d != digest) {
      outcome.Fail(num_vms, "repetition " + std::to_string(wall.size()) +
                                " changed the simulated counters");
    }
    wall.push_back(batch.wall_s);
    setup.push_back(batch.Sum(&ExpTimes::setup_s));
    ns_per_access.push_back(batch.NsPerAccess());
    std::fprintf(stderr, "rep %zu: wall %.4f s, setup %.4f s, %.2f ns/access, peak rss %.1f MiB\n",
                 wall.size(), wall.back(), setup.back(), ns_per_access.back(), PeakRssMib());
    results = std::move(batch.results);
  } while (std::chrono::duration<double>(Clock::now() - start).count() < args.seconds &&
           static_cast<int>(wall.size()) < kMaxReps);

  // The phase-split run_fn must measure the stock path: the same specs
  // through RunExperiment give the same counters.
  std::vector<ExperimentResult> stock;
  for (const ExperimentSpec& spec : specs) {
    try {
      stock.push_back(RunExperiment(spec));
    } catch (const std::exception& e) {
      outcome.Fail(spec.vms.size(), spec.name + ": stock RunExperiment threw: " + e.what());
    }
  }
  if (stock.size() == specs.size() && Digest(stock) != digest) {
    outcome.Fail(num_vms, "phase-split run_fn and stock RunExperiment disagree");
  }

  metrics["wall_s"] = {Median(wall), "s"};
  metrics["setup_s"] = {Median(setup), "s"};
  metrics["ns_per_access"] = {Median(ns_per_access), "ns"};
  SimMetrics(results, &metrics);
  metrics["ok_frac"] = {1.0 - Ratio(static_cast<double>(outcome.failed),
                                    static_cast<double>(outcome.attempted)),
                        "ratio"};
  PrintResult(args, stamp, static_cast<int>(wall.size()), digest, outcome, metrics);
  return 0;
}

}  // namespace
}  // namespace demeter::perfbench

int main(int argc, char** argv) { return demeter::perfbench::Main(argc, argv); }
