#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <utility>

#include "src/balloon/balloon.h"
#include "src/base/rng.h"
#include "src/core/range_tree.h"
#include "src/harness/machine.h"
#include "src/hyper/hypervisor.h"
#include "src/mem/host_memory.h"
#include "src/mmu/page_table.h"
#include "src/mmu/tlb.h"
#include "src/mmu/walker.h"
#include "src/pebs/pebs.h"
#include "src/sim/event_queue.h"
#include "src/swap/swap_device.h"
#include "src/workloads/workload.h"

namespace demeter::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// Keeps a computed value alive without a store the optimizer can drop.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Median over `batches` timed batches of ns per op; `batch()` runs one
// batch and returns the ops it performed.
template <typename Batch>
double MedianNsPerOp(int batches, Batch&& batch) {
  std::vector<double> per_op;
  per_op.reserve(static_cast<size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point start = Clock::now();
    const double ops = static_cast<double>(batch());
    per_op.push_back(NsSince(start) / ops);
  }
  return Median(std::move(per_op));
}

// A standalone host with one policy-less VM, as in bench/micro_benchmarks'
// BatchBenchEnv, sized like one of the benchmark's VMs.
struct VmEnv {
  explicit VmEnv(const Scale& scale)
      : memory({TierSpec::LocalDram(scale.vm_bytes), TierSpec::Pmem(2 * scale.vm_bytes)}),
        hyper(&memory, &events) {
    VmConfig config;
    config.id = 0;
    config.num_vcpus = 1;
    config.total_memory_bytes = scale.vm_bytes;
    config.fmem_ratio = 0.2;
    config.start_full = true;
    vm = &hyper.CreateVm(config);
    process = &vm->kernel().CreateProcess();
  }

  void Settle() {
    while (!events.empty()) {
      events.RunUntil(events.NextEventTime());
    }
  }

  HostMemory memory;
  EventQueue events;
  Hypervisor hyper;
  Vm* vm = nullptr;
  GuestProcess* process = nullptr;
};

// A workload instance set up inside a VmEnv. With `init`, the footprint is
// touched in address order first, as Machine's init pass does.
struct WorkloadEnv {
  WorkloadEnv(const Scale& scale, const std::string& name, uint64_t seed, bool init)
      : env(scale), workload(MakeWorkload(name, scale.footprint())), rng(seed) {
    workload->Setup(*env.process, rng);
    env.vm->set_cache_hit_rate(workload->CacheHitRate());
    if (!init) {
      return;
    }
    for (const Vma& vma : env.process->space().vmas()) {
      if (!vma.tracked) {
        continue;
      }
      for (uint64_t addr = vma.start; addr < vma.end; addr += kPageSize) {
        const AccessResult r = env.vm->ExecuteAccess(0, *env.process, addr, true);
        env.vm->vcpu(0).clock_ns += r.ns;
      }
    }
  }

  VmEnv env;
  std::unique_ptr<Workload> workload;
  Rng rng;
};

double NextBatchNsPerOp(const Scale& scale, const std::string& name, uint64_t seed) {
  WorkloadEnv w(scale, name, seed, /*init=*/false);
  std::vector<AccessOp> ops;
  ops.reserve(scale.batch_ops);
  return MedianNsPerOp(15, [&] {
    size_t produced = 0;
    for (int i = 0; i < 200; ++i) {
      ops.clear();
      w.workload->NextBatch(0, scale.batch_ops, w.rng, &ops);
      produced += ops.size();
    }
    Keep(ops.data());
    return produced;
  });
}

// Vm::ExecuteBatch on a warmed policy-less VM fed each workload's own
// stream in batch_ops slices; the mean over `workloads` (equal op counts).
double ExecuteBatchNsPerOp(const Scale& scale, const std::vector<std::string>& workloads,
                           uint64_t seed) {
  double total = 0.0;
  for (const std::string& name : workloads) {
    WorkloadEnv w(scale, name, seed, /*init=*/true);
    std::vector<std::vector<AccessOp>> stream(64);
    for (std::vector<AccessOp>& batch : stream) {
      w.workload->NextBatch(0, scale.batch_ops, w.rng, &batch);
    }
    std::vector<BatchStep> steps(scale.batch_ops);
    const auto pass = [&] {
      size_t executed = 0;
      for (const std::vector<AccessOp>& batch : stream) {
        executed += w.env.vm->ExecuteBatch(0, *w.env.process, std::span<const AccessOp>(batch),
                                           1e18, steps.data());
      }
      return executed;
    };
    pass();  // Warm the TLB and walk caches.
    total += MedianNsPerOp(9, pass);
  }
  return total / static_cast<double>(workloads.size());
}

void MeasureMmu(const Scale& scale, Values* out) {
  const PageNum pages = scale.footprint() / kPageSize;
  const MmuCosts costs;
  {
    Tlb tlb;
    for (PageNum p = 0; p < pages; ++p) {
      tlb.Insert(p, p);
    }
    PageNum p = 0;
    (*out)["mmu.tlb_lookup_hit_ns"] = MedianNsPerOp(15, [&] {
      for (int i = 0; i < 200000; ++i) {
        Keep(tlb.Lookup(p++ % pages));
      }
      return 200000;
    });
  }
  PageTable gpt;
  PageTable ept;
  for (PageNum p = 0; p < pages; ++p) {
    gpt.Map(p, p, true);
    ept.Map(p, p, true);
  }
  {
    Tlb tlb(2, 2);  // Tiny TLB: every translation walks.
    PageNum p = 0;
    (*out)["mmu.translate2d_miss_ns"] = MedianNsPerOp(15, [&] {
      for (int i = 0; i < 50000; ++i) {
        Keep(Translate2D(tlb, gpt, ept, (p += 7) % pages, false, costs));
      }
      return 50000;
    });
  }
  {
    Tlb tlb;
    for (PageNum p = 0; p < pages; ++p) {
      tlb.Insert(p, p);
    }
    PageNum p = 0;
    (*out)["mmu.translate2d_hit_write_ns"] = MedianNsPerOp(15, [&] {
      for (int i = 0; i < 100000; ++i) {
        Keep(Translate2D(tlb, gpt, ept, p++ % pages, true, costs));
      }
      return 100000;
    });
  }
  {
    uint64_t touched = 0;
    (*out)["tmm.scan_and_clear_ns_per_page"] = MedianNsPerOp(15, [&] {
      for (int i = 0; i < 20; ++i) {
        touched += gpt.ScanAndClearAccessed(0, pages, [](PageNum, uint64_t, bool, bool) {});
      }
      Keep(touched);
      return 20 * pages;
    });
  }
}

void MeasurePolicyPath(const Scale& scale, uint64_t seed, Values* out) {
  {
    PebsConfig config;
    config.sample_period = scale.demeter_sample_period;
    PebsUnit unit(config);
    unit.set_enabled(true);
    unit.set_pmi_handler([](std::vector<PebsRecord>&&, Nanos) {});
    uint64_t gva = 0;
    (*out)["pebs.on_access_ns"] = MedianNsPerOp(15, [&] {
      for (int i = 0; i < 200000; ++i) {
        Keep(unit.OnAccess(gva += 64, 176.6, false, 0));
      }
      return 200000;
    });
  }
  // Range tree over one VM footprint, pre-split by a few epochs of samples.
  RangeTreeConfig config;
  config.split_threshold = 4.0;
  RangeTree tree(config);
  const uint64_t footprint = scale.footprint();
  tree.AddRegion(0, footprint);
  Rng rng(seed);
  for (int e = 0; e < 10; ++e) {
    for (int i = 0; i < 2000; ++i) {
      tree.RecordSample(rng.NextZipf(footprint / 64, 0.9) * 64);
    }
    tree.EndEpoch(scale.vcpus);
  }
  uint64_t addr = 0;
  (*out)["core.range_tree_record_ns"] = MedianNsPerOp(15, [&] {
    for (int i = 0; i < 100000; ++i) {
      tree.RecordSample((addr += 4093 * 64) % footprint);
    }
    return 100000;
  });
  // One epoch boundary after a typical epoch's worth of samples; the
  // recording is inside the timed batch, so subtract it.
  const double record_ns = (*out)["core.range_tree_record_ns"];
  (*out)["core.range_tree_end_epoch_us"] =
      (MedianNsPerOp(15, [&] {
         for (int i = 0; i < 2000; ++i) {
           tree.RecordSample(rng.NextZipf(footprint / 64, 0.9) * 64);
         }
         tree.EndEpoch(scale.vcpus);
         return 1;
       }) - 2000 * record_ns) /
      1000.0;
}

void MeasureSimAndBase(const Scale& scale, uint64_t seed, Values* out) {
  {
    EventQueue queue;
    Nanos now = 0;
    uint64_t fired = 0;
    (*out)["sim.schedule_pop_ns"] = MedianNsPerOp(15, [&] {
      for (int i = 0; i < 50000; ++i) {
        queue.Schedule(now + 10, [&fired](Nanos) { ++fired; });
        now += 10;
        queue.RunUntil(now);
      }
      Keep(fired);
      return 50000;
    });
  }
  {
    // silo's record popularity: zipf(0.9) over its record count.
    const uint64_t footprint = scale.footprint();
    const uint64_t records = (footprint - PageCeil(footprint / 16)) / 1024;
    Rng rng(seed);
    uint64_t sum = 0;
    (*out)["base.zipf_ns_per_draw"] = MedianNsPerOp(15, [&] {
      for (int i = 0; i < 100000; ++i) {
        sum += rng.NextZipf(records, 0.9);
      }
      Keep(sum);
      return 100000;
    });
  }
}

void MeasureBalloonAndSwap(const Scale& scale, uint64_t seed, Values* out) {
  {
    // Inflate-then-deflate round trips of one overcommit spill batch on a
    // standalone VM, each settled through the event queue.
    VmEnv env(scale);
    DemeterBalloon balloon(env.vm);
    constexpr int64_t kPages = 256;
    Nanos now = 0;
    (*out)["balloon.request_us"] =
        MedianNsPerOp(15, [&] {
          for (int i = 0; i < 10; ++i) {
            for (const int64_t delta : {kPages, -kPages}) {
              balloon.RequestDelta(1, delta, now += kSecond);
              env.Settle();
            }
          }
          return 20;
        }) /
        1000.0;
  }
  {
    SwapDeviceConfig config;
    config.seed = seed;
    SwapDevice device(config, nullptr);
    constexpr FrameId kFrames = 20000;
    // Writebacks are spaced past the device's service time so the bounded
    // queue never stalls; loads come after every writeback completed.
    Nanos now = 0;
    double cost = 0.0;
    FrameId next = 0;
    (*out)["swap.slot_store_ns"] = MedianNsPerOp(15, [&] {
      for (FrameId f = 0; f < kFrames; ++f) {
        cost += device.SlotStore(next++, 0, now += 200 * kMicrosecond);
      }
      return kFrames;
    });
    now += kSecond;
    FrameId loaded = 0;
    (*out)["swap.slot_load_ns"] = MedianNsPerOp(15, [&] {
      for (FrameId f = 0; f < kFrames; ++f) {
        cost += device.SlotLoad(loaded++, 0, now);
      }
      return kFrames;
    });
    Keep(cost);
  }
}

// Machine::ExtractVm + AdoptVm of one fleet-sized VM bounced between two
// running hosts.
double ExtractAdoptMs(const Scale& scale, uint64_t seed) {
  const std::vector<ExperimentSpec> fleet = BuildSpecs(WorkloadKind::kFleetHa, seed, scale);
  MachineConfig config = fleet.front().config;
  config.faults = FaultPlan{};
  VmSetup setup = fleet.front().vms.front();
  setup.provision = ProvisionMode::kStatic;
  setup.target_transactions = ~uint64_t{0} >> 8;  // Never finishes here.
  Machine hosts[2] = {Machine(config), Machine(config)};
  int vm[2] = {hosts[0].AddVm(setup), -1};
  hosts[1].AddVm(setup);  // Keeps the destination host running.
  hosts[0].StartRun();
  hosts[1].StartRun();
  // Past both init passes, so every bounce moves a running VM.
  Nanos now = std::max(hosts[0].MinActiveClock(), hosts[1].MinActiveClock());
  std::vector<double> ms;
  for (int bounce = 0; bounce < 6; ++bounce) {
    const int src = bounce % 2;
    now += 2 * kMillisecond;
    hosts[0].StepUntil(now);
    hosts[1].StepUntil(now);
    const Clock::time_point start = Clock::now();
    MigratedVm moved = hosts[src].ExtractVm(vm[src], now);
    vm[1 - src] = hosts[1 - src].AdoptVm(std::move(moved), now, 0.0);
    ms.push_back(NsSince(start) / 1e6);
  }
  return Median(std::move(ms));
}

}  // namespace

Values MeasureUnitCosts(const Scale& scale, uint64_t seed, bool with_cluster) {
  Values out;
  for (const char* name : {"xsbench", "btree", "silo", "gups"}) {
    out[std::string("workloads.next_batch_ns_per_op.") + name] =
        NextBatchNsPerOp(scale, name, seed);
  }
  out["hyper.execute_batch_ns_per_op.read"] =
      ExecuteBatchNsPerOp(scale, {"xsbench", "btree"}, seed);
  out["hyper.execute_batch_ns_per_op.write"] = ExecuteBatchNsPerOp(scale, {"silo", "gups"}, seed);
  MeasureMmu(scale, &out);
  MeasurePolicyPath(scale, seed, &out);
  MeasureSimAndBase(scale, seed, &out);
  MeasureBalloonAndSwap(scale, seed, &out);
  out["cluster.extract_adopt_ms"] = with_cluster ? ExtractAdoptMs(scale, seed) : 0.0;
  return out;
}

// ---- counter sums ------------------------------------------------------------

namespace {

bool EndsWith(std::string_view name, std::string_view suffix) {
  return name.size() > suffix.size() && name.substr(name.size() - suffix.size()) == suffix &&
         name[name.size() - suffix.size() - 1] == '/';
}

// True for `name` itself or "host<digits>/<name>".
bool IsHostCounter(std::string_view sample, std::string_view name) {
  if (sample == name) {
    return true;
  }
  if (sample.substr(0, 4) != "host" || !EndsWith(sample, name)) {
    return false;
  }
  const std::string_view id = sample.substr(4, sample.size() - name.size() - 5);
  return !id.empty() &&
         std::all_of(id.begin(), id.end(), [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

uint64_t CounterSums::Vm(std::string_view name) const {
  uint64_t sum = 0;
  for (const ExperimentResult& result : results_) {
    for (const VmRunResult& vm : result.vms) {
      sum += vm.metrics.CounterValue(name);
    }
  }
  return sum;
}

uint64_t CounterSums::VmSuffix(std::string_view suffix) const {
  uint64_t sum = 0;
  for (const ExperimentResult& result : results_) {
    for (const VmRunResult& vm : result.vms) {
      for (const MetricSample& sample : vm.metrics.samples()) {
        if (sample.kind == MetricKind::kCounter && EndsWith(sample.name, suffix)) {
          sum += sample.counter;
        }
      }
    }
  }
  return sum;
}

uint64_t CounterSums::Host(std::string_view name) const {
  uint64_t sum = 0;
  for (const ExperimentResult& result : results_) {
    for (const MetricSample& sample : result.host_metrics.samples()) {
      if (sample.kind == MetricKind::kCounter && IsHostCounter(sample.name, name)) {
        sum += sample.counter;
      }
    }
  }
  return sum;
}

void CounterSums::VmDistribution(std::string_view name, uint64_t* count, uint64_t* sum) const {
  *count = 0;
  *sum = 0;
  for (const ExperimentResult& result : results_) {
    for (const VmRunResult& vm : result.vms) {
      const MetricSample* sample = vm.metrics.Find(name);
      if (sample != nullptr && sample->kind == MetricKind::kDistribution) {
        *count += sample->distribution.count;
        *sum += sample->distribution.sum;
      }
    }
  }
}

}  // namespace demeter::perfbench
