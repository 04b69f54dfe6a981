// Shared configuration and scaffolding for the paper-reproduction bench
// binaries.
//
// The paper's testbed runs 16 GiB VMs with 4 vCPUs on a 36-core dual-socket
// host; this simulation runs on one core, so every bench uses a scaled-down
// geometry that preserves the paper's *ratios*: FMEM:total = 1:5, footprint
// close to VM capacity, hot-set fractions, and epoch:run-length proportions.
//
// Flags accepted by every bench (unknown flags are rejected with a usage
// message, and so are --smoke and --full together):
//   --full        larger (slower) configuration closer to paper scale
//   --smoke       tiny configuration for CI smoke runs (seconds, not minutes)
//   --jobs=N      core budget for runner-based benches (default: all cores)
//   --out=FILE    also write results as JSON lines to FILE
//   --trace=FILE  write a Chrome trace_event JSON trace of every run to FILE
//   --faults=SPEC inject the given fault schedule into every machine
//                 (see FaultPlan::Parse for the SPEC grammar); rejected by
//                 benches that own their fault schedule
//   --shards=N    partition each machine's per-VM state into N shards
//                 (ownership/locality only — results are byte-identical for
//                 every N; see DESIGN.md "The sharded host")
//   --check       audit cross-layer invariants during every run (abort on
//                 violation); observability-only, results are unchanged
//   --help        print this bench's usage and exit
// Flags a bench opts into through its BenchFlags:
//   --fleet=VxH       V VMs across H >= 2 hosts, V a multiple of H
//   --placement=NAME  first-fit | best-fit | spread
//
// A scenario bench declares three things and leaves the rest to this file:
// its BenchFlags (does it own its fault schedule, take --fleet or
// --placement), the kPolicyVariants it sweeps, and the loop that submits its
// specs. PrintResultTable and WriteOutputs are its report epilogue.

#ifndef DEMETER_BENCH_COMMON_H_
#define DEMETER_BENCH_COMMON_H_

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/fault/fault.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"

namespace demeter {

// V VMs across H hosts (--fleet=VxH).
struct Fleet {
  int vms = 0;
  int hosts = 0;
};

// What a bench accepts beyond the shared flags.
struct BenchFlags {
  // The bench sweeps its own fault schedule: --faults is rejected rather
  // than silently mixed into it.
  bool owns_faults = false;
  // The fleet --full runs. Non-zero hosts make this a fleet bench: it takes
  // --fleet=VxH and defaults to 32x4 (--smoke 8x2).
  Fleet full_fleet{};
  // --fleet's H must be even (odd hosts are the no-fail safe harbor).
  bool even_hosts = false;
  bool placement = false;  // Takes --placement=NAME.
};

struct BenchScale {
  uint64_t vm_bytes = 32 * kMiB;
  double footprint_ratio = 0.75;  // Footprint relative to VM memory.
  uint64_t transactions = 800000;
  int vcpus = 2;
  Nanos demeter_epoch = 10 * kMillisecond;
  uint64_t demeter_sample_period = 97;
  // Scaled split threshold: keeps the paper's ratio of split margin
  // (alpha * tau_split * vcpus) to samples-per-epoch (~2.5%) at this
  // simulation's sample rate.
  double demeter_split_threshold = 4.0;
  Nanos policy_period = 15 * kMillisecond;
  Nanos timeline_bucket = 25 * kMillisecond;
  // Concurrent VMs for the multi-VM experiments (the paper runs nine).
  int concurrent_vms = 3;
  // Runner controls (see flags above).
  int jobs = 0;               // <= 0: hardware_concurrency.
  std::string out;            // JSON-lines output path; empty = none.
  std::string trace;          // Chrome trace output path; empty = no tracing.
  FaultPlan faults;           // --faults; empty = fault-free.
  int shards = 1;             // --shards; clamped to [1, Machine::kMaxShards].
  bool check_invariants = false;  // --check.
  bool smoke = false;         // --smoke was given (benches that scale VM counts).
  Fleet fleet;                // Fleet benches: --fleet, else the default for the scale.
  PlacementPolicy placement = PlacementPolicy::kFirstFit;  // --placement.

  static void Usage(const char* prog, std::FILE* stream, const BenchFlags& flags = {});

  // Parses the bench flags. A rejected argument prints the reason and the
  // usage and exits 2, so a typo never runs the default configuration.
  static BenchScale FromArgs(int argc, char** argv, const BenchFlags& flags = {});

  uint64_t footprint() const {
    return PageFloor(static_cast<uint64_t>(footprint_ratio * static_cast<double>(vm_bytes)));
  }
};

inline void BenchScale::Usage(const char* prog, std::FILE* stream, const BenchFlags& flags) {
  const bool fleet = flags.full_fleet.hosts > 0;
  std::fprintf(stream,
               "usage: %s [--full | --smoke] [--jobs=N] [--out=FILE] [--trace=FILE]\n"
               "          %s%s%s[--shards=N] [--check] [--help]\n"
               "  --full         paper-scale (slower) configuration\n"
               "  --smoke        tiny CI configuration (completes in seconds)\n"
               "  --jobs=N       core budget (default: all cores)\n"
               "  --out=FILE     also write JSON-lines results to FILE\n"
               "  --trace=FILE   write Chrome trace_event JSON to FILE\n",
               prog, flags.owns_faults ? "" : "[--faults=SPEC] ", fleet ? "[--fleet=VxH] " : "",
               flags.placement ? "[--placement=NAME] " : "");
  if (!flags.owns_faults) {
    std::fprintf(stream, "  --faults=SPEC  inject a fault schedule, e.g.\n"
                         "                 'bdrop=0.1,stall=5ms/50ms,vqcap=8' (see src/fault)\n");
  }
  if (fleet) {
    std::fprintf(stream,
                 "  --fleet=VxH    V VMs across H hosts: H >= 2%s, V a multiple of H\n"
                 "                 (default 32x4, --smoke 8x2, --full %dx%d)\n",
                 flags.even_hosts ? " and even" : "", flags.full_fleet.vms,
                 flags.full_fleet.hosts);
  }
  if (flags.placement) {
    std::fprintf(stream, "  --placement=NAME  first-fit | best-fit | spread (default first-fit)\n");
  }
  std::fprintf(stream,
               "  --shards=N     shard per-VM machine state (results identical for any N)\n"
               "  --check        audit cross-layer invariants every quantum\n");
}

// The value of `arg` when it is `prefix` followed by a value, else nullptr.
inline const char* FlagValue(const char* arg, const char* prefix) {
  const size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

// A positive int, or 0 when `value` is anything else.
inline int PositiveInt(const char* value) {
  char* end = nullptr;
  const long n = std::strtol(value, &end, 10);
  return end == value || *end != '\0' || n < 1 || n > INT_MAX ? 0 : static_cast<int>(n);
}

// Truncates `path` for writing: an unwritable path fails before the sweep,
// not after minutes of simulation.
inline bool ProbeWritable(const std::string& path) {
  std::FILE* probe = std::fopen(path.c_str(), "w");
  if (probe == nullptr) {
    return false;
  }
  std::fclose(probe);
  return true;
}

// Parses argv into *scale without exiting. Returns why the arguments are
// rejected, or an empty string. Stops at --help, setting *help.
inline std::string ParseBenchArgs(int argc, char** argv, const BenchFlags& flags,
                                  BenchScale* scale, bool* help) {
  bool full = false;
  bool fleet_given = false;
  *help = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--full") == 0) {
      full = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      scale->smoke = true;
    } else if ((value = FlagValue(arg, "--jobs=")) != nullptr) {
      scale->jobs = PositiveInt(value);
      if (scale->jobs == 0) {
        return std::string("--jobs needs a positive integer, got '") + value + "'";
      }
    } else if ((value = FlagValue(arg, "--out=")) != nullptr) {
      scale->out = value;
      if (scale->out.empty()) {
        return "--out needs a file path";
      }
      if (!ProbeWritable(scale->out)) {
        return "cannot open '" + scale->out + "' for writing";
      }
    } else if ((value = FlagValue(arg, "--trace=")) != nullptr) {
      scale->trace = value;
      if (scale->trace.empty()) {
        return "--trace needs a file path";
      }
      if (!ProbeWritable(scale->trace)) {
        return "cannot open '" + scale->trace + "' for writing";
      }
    } else if ((value = FlagValue(arg, "--faults=")) != nullptr) {
      if (flags.owns_faults) {
        return "this bench owns its fault schedule; drop --faults";
      }
      std::string error;
      const std::optional<FaultPlan> plan = FaultPlan::Parse(value, &error);
      if (!plan.has_value()) {
        return "bad --faults spec: " + error;
      }
      scale->faults = *plan;
    } else if ((value = FlagValue(arg, "--shards=")) != nullptr) {
      scale->shards = PositiveInt(value);
      if (scale->shards == 0) {
        return std::string("--shards needs a positive integer, got '") + value + "'";
      }
    } else if (std::strcmp(arg, "--check") == 0) {
      scale->check_invariants = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      *help = true;
      return "";
    } else if (flags.full_fleet.hosts > 0 && (value = FlagValue(arg, "--fleet=")) != nullptr) {
      Fleet& fleet = scale->fleet;
      const char* x = std::strchr(value, 'x');
      fleet.vms = x == nullptr ? 0 : PositiveInt(std::string(value, x).c_str());
      fleet.hosts = x == nullptr ? 0 : PositiveInt(x + 1);
      if (fleet.vms == 0 || fleet.hosts < 2 || fleet.vms % fleet.hosts != 0 ||
          (flags.even_hosts && fleet.hosts % 2 != 0)) {
        return std::string("--fleet needs VxH with H >= 2") +
               (flags.even_hosts ? " and even (odd hosts are the no-fail safe harbor)" : "") +
               " and V a multiple of H, got '" + value + "'";
      }
      fleet_given = true;
    } else if (flags.placement && (value = FlagValue(arg, "--placement=")) != nullptr) {
      bool known = false;
      for (const PlacementPolicy policy :
           {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit, PlacementPolicy::kSpread}) {
        if (std::strcmp(value, PlacementPolicyName(policy)) == 0) {
          scale->placement = policy;
          known = true;
        }
      }
      if (!known) {
        return std::string("--placement needs first-fit|best-fit|spread, got '") + value + "'";
      }
    } else {
      return std::string("unrecognized argument '") + arg + "'";
    }
  }
  if (full && scale->smoke) {
    return "--smoke and --full are mutually exclusive";
  }
  if (full) {
    scale->vm_bytes = 128 * kMiB;
    scale->transactions = 2000000;
    scale->vcpus = 4;
    scale->concurrent_vms = 9;
  } else if (scale->smoke) {
    // CI-sized: small enough that a full sweep finishes in seconds while
    // still exercising every policy/provisioning code path.
    scale->vm_bytes = 8 * kMiB;
    scale->transactions = 20000;
    scale->vcpus = 2;
    scale->concurrent_vms = 2;
  }
  if (flags.full_fleet.hosts > 0 && !fleet_given) {
    scale->fleet = scale->smoke ? Fleet{8, 2} : full ? flags.full_fleet : Fleet{32, 4};
  }
  return "";
}

inline BenchScale BenchScale::FromArgs(int argc, char** argv, const BenchFlags& flags) {
  BenchScale scale;
  bool help = false;
  const std::string error = ParseBenchArgs(argc, argv, flags, &scale, &help);
  if (help) {
    Usage(argv[0], stdout, flags);
    std::exit(0);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    Usage(argv[0], stderr, flags);
    std::exit(2);
  }
  return scale;
}

enum class SmemKind { kPmem, kCxl };

inline const char* SmemKindName(SmemKind smem) {
  return smem == SmemKind::kPmem ? "pmem" : "cxl";
}

inline MachineConfig HostFor(const BenchScale& scale, int num_vms,
                             SmemKind smem = SmemKind::kPmem) {
  MachineConfig config;
  const uint64_t n = static_cast<uint64_t>(num_vms);
  // Host DRAM is sized like the paper's testbed: each VM's 1:5 FMEM share
  // plus 25% headroom (the slack §5.4 grants hypervisor-based TPP-H).
  // SMEM is ample so ballooned-up configurations also fit.
  const uint64_t fmem =
      PageCeil(static_cast<uint64_t>(static_cast<double>(scale.vm_bytes * n) * 0.2 * 1.25));
  const uint64_t smem_bytes = scale.vm_bytes * n * 2;
  config.tiers = {TierSpec::LocalDram(fmem), smem == SmemKind::kPmem
                                                 ? TierSpec::Pmem(smem_bytes)
                                                 : TierSpec::RemoteDram(smem_bytes)};
  // Observability only — excluded from the spec content hash, so results
  // are identical with or without --trace / --check / --shards.
  config.capture_trace = !scale.trace.empty();
  config.check_invariants = scale.check_invariants;
  config.shards = scale.shards;
  // Faults change behaviour and fold into the hash when non-empty.
  config.faults = scale.faults;
  return config;
}

inline VmSetup SetupFor(const BenchScale& scale, const std::string& workload, PolicyKind policy) {
  VmSetup setup;
  setup.vm.total_memory_bytes = scale.vm_bytes;
  setup.vm.fmem_ratio = 0.2;  // The paper's default 1:5.
  setup.vm.num_vcpus = scale.vcpus;
  setup.workload = workload;
  setup.footprint_bytes = scale.footprint();
  setup.target_transactions = scale.transactions;
  setup.policy = policy;
  setup.policy_period = scale.policy_period;
  setup.demeter.range.epoch_length = scale.demeter_epoch;
  setup.demeter.sample_period = scale.demeter_sample_period;
  setup.demeter.range.split_threshold = scale.demeter_split_threshold;
  setup.timeline_bucket = scale.timeline_bucket;
  return setup;
}

// One homogeneous experiment: `num_vms` identical VMs running `workload`
// under `policy` on a HostFor host. The building block of every sweep.
inline ExperimentSpec SpecFor(const BenchScale& scale, const std::string& workload,
                              PolicyKind policy, int num_vms, SmemKind smem = SmemKind::kPmem) {
  ExperimentSpec spec;
  spec.name = workload + "/" + PolicyKindName(policy) + "/" + SmemKindName(smem);
  spec.tag = workload;
  spec.config = HostFor(scale, num_vms, smem);
  for (int v = 0; v < num_vms; ++v) {
    spec.vms.push_back(SetupFor(scale, workload, policy));
  }
  return spec;
}

inline RunnerOptions RunnerOptionsFor(const BenchScale& scale) {
  RunnerOptions options;
  options.jobs = scale.jobs;
  return options;
}

// One TMM policy configuration a scenario bench sweeps.
struct PolicyVariant {
  const char* name;
  PolicyKind kind;
  ProvisionMode provision;
  bool degradation = true;  // Demeter's host-side fallback; only Demeter reads it.
};

// The scenario benches' shared roster, so their numbers line up bench to
// bench. Each policy keeps its natural provisioning path, so lifecycle
// churn exercises every provisioner kind. Only the Demeter variants wire a
// double balloon, so only they can answer the overcommit scheduler's spill
// requests; demeter-nofb is the no-fallback ablation that shows what the
// host-side watchdog is worth.
inline constexpr PolicyVariant kPolicyVariants[] = {
    {"demeter", PolicyKind::kDemeter, ProvisionMode::kDemeterBalloon, true},
    {"demeter-nofb", PolicyKind::kDemeter, ProvisionMode::kDemeterBalloon, false},
    {"tpp", PolicyKind::kTpp, ProvisionMode::kStatic},
    {"tpp-h", PolicyKind::kHTpp, ProvisionMode::kStatic},
    {"memtis", PolicyKind::kMemtis, ProvisionMode::kVirtioBalloon},
    {"nomad", PolicyKind::kNomad, ProvisionMode::kStatic},
    {"damon", PolicyKind::kDamon, ProvisionMode::kHotplug},
};

inline void ApplyVariant(const PolicyVariant& variant, VmSetup& setup) {
  setup.provision = variant.provision;
  setup.demeter.degradation.enabled = variant.degradation;
}

// A fault schedule compiled into a bench; a typo in it is a bench bug.
inline FaultPlan BuiltinFaults(const std::string& spec) {
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::Parse(spec, &error);
  DEMETER_CHECK(plan.has_value()) << "bad built-in fault spec '" << spec << "': " << error;
  return *plan;
}

// Guest-outage benches (fault_resilience, elasticity_churn) run Demeter at
// this epoch, so smoke runs still span many epochs and fault windows.
inline constexpr Nanos kOutageEpoch = 2 * kMillisecond;

// Degrade only on real outages: the threshold sits above the 10 ms stall
// windows (transient hiccups the guest absorbs on its own) but far below
// the 90 ms crash windows. Degrading on every stall would be actively
// harmful — each host round consumes the PEBS channel, so a guest that
// recovers moments later runs its next epoch on a starved range tree.
inline void SetOutageDegradation(VmSetup& setup) {
  setup.demeter.degradation.unresponsive_after = 6 * kOutageEpoch;
  setup.demeter.degradation.watchdog_period = kOutageEpoch;
  // Host rounds at the guest's own epoch cadence: silo's hotspot drifts
  // continuously, so a slower fallback promotes pages that have already
  // cooled by the time they land in FMEM.
  setup.demeter.degradation.host_round_period = kOutageEpoch;
  // Batch sized to silo's drift rate (~45 newly-hot pages per epoch):
  // promoting more just churns pages the drift will cool moments later,
  // and every extra migration is a page copy that congests the slow tier
  // the workload is reading from.
  setup.demeter.degradation.host_batch_pages = 64;
}

// The fleet benches' flags. Both own their fault schedule; availability's
// odd hosts are the no-fail safe harbor, so its H must be even.
inline constexpr BenchFlags kClusterFleetFlags = {
    .owns_faults = true, .full_fleet = {128, 8}, .placement = true};
inline constexpr BenchFlags kAvailabilityFlags = {
    .owns_faults = true, .full_fleet = {64, 8}, .even_hosts = true};

// Fleet benches (cluster_fleet, fleet_availability): --smoke/--full size
// the FLEET, while per-VM work stays CI-sized so the fleet dimension is
// what grows — the shared --full VM size would run a 128-VM fleet for hours
// without exercising anything the small VMs don't. Work is doubled so each
// run spans several fault windows: an evacuation needs its source VM alive
// for a few barriers after a window opens.
inline void UseFleetVmScale(BenchScale& scale) {
  scale.vm_bytes = scale.smoke ? 8 * kMiB : 16 * kMiB;
  scale.transactions = scale.smoke ? 20000 : 50000;
  scale.vcpus = 2;
  scale.transactions *= 2;
}

// Alternating hosts lose 30% of FMEM for 6 ms of every 20 ms: with the
// 10 ms barrier epoch, every other barrier lands inside a shrink window, so
// the evacuation path is exercised continuously rather than by luck.
inline constexpr char kFleetShrinkSpec[] = "tiershrink=0.3/6ms/20ms@0";

// Every migration leaving any host aborts with p=0.3 once its cumulative
// pre-copy work crosses 1 ms — mid-copy for anything bigger than a few
// hundred pages, so the abort exercises source-side rollback, not a
// never-started migration. `even_host_token` (e.g. a hostfail) follows
// each even host's migratefail, aimed at that host.
inline std::string MigrateFailSpec(int hosts, const std::string& even_host_token = "") {
  std::string spec;
  const int armed = hosts < kMaxFaultHosts ? hosts : kMaxFaultHosts;
  for (int h = 0; h < armed; ++h) {
    if (!spec.empty()) {
      spec += ',';
    }
    spec += "migratefail=0.3/1ms@" + std::to_string(h);
    if (h % 2 == 0 && !even_host_token.empty()) {
      spec += "," + even_host_token + "@" + std::to_string(h);
    }
  }
  return spec;
}

// `scale.fleet` of silo VMs under `variant`, placed by `placement` on hosts
// each sized for `host_vms` tenants. The caller names the spec.
inline ExperimentSpec FleetSpecFor(const BenchScale& scale, const PolicyVariant& variant,
                                   int host_vms, PlacementPolicy placement) {
  ExperimentSpec spec = SpecFor(scale, "silo", variant.kind, /*num_vms=*/0, SmemKind::kPmem);
  spec.config = HostFor(scale, host_vms);
  spec.cluster.num_hosts = scale.fleet.hosts;
  spec.cluster.placement = placement;
  // silo re-dirties most of its footprint every epoch, so the dirty set
  // never shrinks under any threshold — cap pre-copy at two rounds (full
  // copy + one residual) or every evacuation would race the source VM's
  // completion and cancel.
  spec.cluster.migration.stop_copy_pages = 512;
  spec.cluster.migration.max_precopy_rounds = 2;
  for (int v = 0; v < scale.fleet.vms; ++v) {
    spec.vms.push_back(SetupFor(scale, "silo", variant.kind));
    ApplyVariant(variant, spec.vms.back());
  }
  return spec;
}

// Arms a fleet's faults: `shared_spec` drives the cluster-level injector,
// and even hosts shrink their FMEM while odd hosts stay healthy (the
// evacuation targets).
inline void ArmFleetFaults(ExperimentSpec& spec, const std::string& shared_spec) {
  spec.config.faults = BuiltinFaults(shared_spec);
  spec.cluster.host_faults = {BuiltinFaults(kFleetShrinkSpec), FaultPlan{}};
}

// The experiment's summed VM throughput; 0 when it failed.
inline double TotalTps(const ExperimentResult& result) {
  double tps = 0.0;
  if (result.ok) {
    for (const VmRunResult& vm : result.vms) {
      tps += vm.ThroughputTps();
    }
  }
  return tps;
}

// One per-VM counter summed over the experiment's VMs; 0 when it failed.
inline uint64_t SumVmCounter(const ExperimentResult& result, const std::string& name) {
  uint64_t sum = 0;
  if (result.ok) {
    for (const VmRunResult& vm : result.vms) {
      sum += vm.metrics.CounterValue(name);
    }
  }
  return sum;
}

// Prints the per-VM summary table of every result to stdout.
inline void PrintResultTable(const std::vector<ExperimentResult>& results) {
  TableSink table;
  EmitResults(results, {&table});
}

// Writes --out (JSON lines) and --trace (the merged Chrome trace) when
// given. Results are traversed in submission order, so both files are
// byte-identical across --jobs values.
inline void WriteOutputs(const BenchScale& scale, const std::vector<ExperimentResult>& results) {
  if (!scale.out.empty()) {
    JsonLinesSink sink(scale.out);
    EmitResults(results, {&sink});
    std::fprintf(stderr, "wrote %zu experiment results to %s\n", results.size(),
                 scale.out.c_str());
  }
  if (!scale.trace.empty()) {
    std::vector<NamedTrace> traces;
    for (const ExperimentResult& result : results) {
      if (!result.trace.empty()) {
        traces.push_back(NamedTrace{result.spec.name, &result.trace});
      }
    }
    WriteChromeTraceFile(scale.trace, traces);
    std::fprintf(stderr, "wrote %zu traces to %s\n", traces.size(), scale.trace.c_str());
  }
}

}  // namespace demeter

#endif  // DEMETER_BENCH_COMMON_H_
