// Runner subsystem tests: thread-pool semantics (exception isolation,
// cancellation, idle-wait), content-hash seed derivation, result ordering,
// retry policy, the core-budget split between experiments and host threads,
// host-step errors surfacing as failed results, and the headline guarantee
// — the same ExperimentSpec set run with --jobs=1 and --jobs=8 yields
// identical VmRunResults. Run under -fsanitize=thread in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/cluster/cluster.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"

namespace demeter {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&count] { count.fetch_add(1); }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ExceptionIsolation) {
  ThreadPool pool(2);
  std::atomic<int> survived{0};
  auto bad = pool.Submit([] { throw std::runtime_error("job failure"); });
  std::vector<std::future<void>> good;
  for (int i = 0; i < 16; ++i) {
    good.push_back(pool.Submit([&survived] { survived.fetch_add(1); }));
  }
  EXPECT_THROW(bad.get(), std::runtime_error);
  for (auto& future : good) {
    future.get();  // Workers outlive the throwing job.
  }
  EXPECT_EQ(survived.load(), 16);
}

TEST(ThreadPoolTest, CancelPendingDropsOnlyUnstartedJobs) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::promise<void> started;
  std::atomic<int> ran{0};
  // Occupies the single worker until the gate opens.
  auto blocker = pool.Submit([open, &started, &ran] {
    started.set_value();
    open.wait();
    ran.fetch_add(1);
  });
  started.get_future().wait();  // The blocker is in flight, not queued.
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 8; ++i) {
    queued.push_back(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  const size_t dropped = pool.CancelPending();
  EXPECT_EQ(dropped, 8u);
  gate.set_value();
  blocker.get();
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);  // Only the in-flight job ran.
  for (auto& future : queued) {
    EXPECT_THROW(future.get(), std::future_error);  // broken_promise
  }
}

TEST(ThreadPoolTest, WaitBlocksUntilIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 10);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, DestructorAbandonsPendingJobs) {
  auto pool = std::make_unique<ThreadPool>(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::promise<void> started;
  auto blocker = pool->Submit([open, &started] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();  // Worker is busy; the next job must queue.
  std::future<void> queued = pool->Submit([] {});
  // Destroy the pool while the worker is blocked: the destructor must break
  // the queued job's promise before joining. The destructor itself blocks on
  // the worker, so run it on a helper thread and release the gate only after
  // the abandonment is observable.
  std::thread destroyer([&pool] { pool.reset(); });
  queued.wait();  // Ready (with broken_promise) once the queue is cleared.
  gate.set_value();
  destroyer.join();
  blocker.get();
  EXPECT_THROW(queued.get(), std::future_error);
}

// ---------------------------------------------------- Spec hashing and seeds

ExperimentSpec SmallSpec(const std::string& name, const std::string& workload,
                         PolicyKind policy, uint64_t transactions = 100000) {
  ExperimentSpec spec;
  spec.name = name;
  spec.tag = workload;
  spec.config.tiers = {TierSpec::LocalDram(10 * kMiB), TierSpec::Pmem(64 * kMiB)};
  VmSetup setup;
  setup.vm.total_memory_bytes = 32 * kMiB;
  setup.vm.num_vcpus = 2;
  setup.workload = workload;
  setup.footprint_bytes = 24 * kMiB;
  setup.target_transactions = transactions;
  setup.policy = policy;
  setup.policy_period = 15 * kMillisecond;
  setup.demeter.range.epoch_length = 10 * kMillisecond;
  setup.demeter.range.split_threshold = 4.0;
  setup.demeter.sample_period = 97;
  spec.vms.push_back(setup);
  return spec;
}

TEST(ExperimentSpecTest, ContentHashIsContentOnly) {
  const ExperimentSpec a = SmallSpec("x", "gups", PolicyKind::kDemeter);
  const ExperimentSpec b = SmallSpec("x", "gups", PolicyKind::kDemeter);
  EXPECT_EQ(SpecContentHash(a), SpecContentHash(b));
  EXPECT_EQ(DeriveSeed(a), DeriveSeed(b));
}

TEST(ExperimentSpecTest, EmptyFaultPlanLeavesHashUnchanged) {
  // An empty plan must hash exactly like a spec that predates the fault
  // subsystem, so every pre-existing experiment keeps its seed (and thus
  // its bit-identical results).
  const ExperimentSpec base = SmallSpec("x", "gups", PolicyKind::kDemeter);
  ExperimentSpec with_empty = base;
  with_empty.config.faults = FaultPlan{};
  EXPECT_EQ(SpecContentHash(base), SpecContentHash(with_empty));
}

TEST(ExperimentSpecTest, FaultPlanAndDegradationReseed) {
  const ExperimentSpec base = SmallSpec("x", "gups", PolicyKind::kDemeter);
  ExperimentSpec faulted = base;
  faulted.config.faults = *FaultPlan::Parse("bdrop=0.1");
  EXPECT_NE(SpecContentHash(base), SpecContentHash(faulted));
  ExperimentSpec other_fault = faulted;
  other_fault.config.faults = *FaultPlan::Parse("bdrop=0.2");
  EXPECT_NE(SpecContentHash(faulted), SpecContentHash(other_fault));
  // Observability toggles must NOT reseed: they observe the run, they are
  // not part of it.
  ExperimentSpec checked = base;
  checked.config.check_invariants = true;
  EXPECT_EQ(SpecContentHash(base), SpecContentHash(checked));
  // Non-default degradation settings are behaviour, so they do reseed.
  ExperimentSpec degraded = base;
  degraded.vms[0].demeter.degradation.host_batch_pages = 64;
  EXPECT_NE(SpecContentHash(base), SpecContentHash(degraded));
  ExperimentSpec ablation = base;
  ablation.vms[0].demeter.degradation.enabled = false;
  EXPECT_NE(SpecContentHash(base), SpecContentHash(ablation));
}

TEST(ExperimentSpecTest, AnyFieldChangeReseeds) {
  const ExperimentSpec base = SmallSpec("x", "gups", PolicyKind::kDemeter);
  ExperimentSpec renamed = base;
  renamed.name = "y";
  ExperimentSpec repoliced = base;
  repoliced.vms[0].policy = PolicyKind::kTpp;
  ExperimentSpec reseeded = base;
  reseeded.config.seed = 43;
  ExperimentSpec resized = base;
  resized.vms[0].footprint_bytes += kPageSize;
  EXPECT_NE(SpecContentHash(base), SpecContentHash(renamed));
  EXPECT_NE(SpecContentHash(base), SpecContentHash(repoliced));
  EXPECT_NE(SpecContentHash(base), SpecContentHash(reseeded));
  EXPECT_NE(SpecContentHash(base), SpecContentHash(resized));
}

TEST(ExperimentSpecTest, HostThreadsDoNotReseed) {
  // An execution strategy, not behaviour: the runner fills host_threads in
  // per --jobs, and that must never change a seed.
  ExperimentSpec base = SmallSpec("x", "gups", PolicyKind::kDemeter);
  base.cluster.num_hosts = 2;
  for (const int threads : {1, 2, 8}) {
    ExperimentSpec threaded = base;
    threaded.config.host_threads = threads;
    EXPECT_EQ(DeriveSeed(base), DeriveSeed(threaded)) << threads;
  }
}

// --------------------------------------------------------- Runner mechanics

RunnerOptions QuietOptions(int jobs) {
  RunnerOptions options;
  options.jobs = jobs;
  options.progress = false;
  return options;
}

TEST(RunnerTest, ResultsComeBackInSpecOrder) {
  // Jobs finish in reverse submission order (later specs sleep less); the
  // result vector must still match submission order.
  RunnerOptions options = QuietOptions(4);
  options.run_fn = [](const ExperimentSpec& spec) {
    const int index = spec.name.back() - '0';
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * (4 - index)));
    ExperimentResult result;
    result.spec = spec;
    result.ok = true;
    return result;
  };
  ExperimentRunner runner(options);
  for (int i = 0; i < 4; ++i) {
    runner.Submit(SmallSpec("spec" + std::to_string(i), "gups", PolicyKind::kStatic));
  }
  const std::vector<ExperimentResult> results = runner.RunAll();
  ASSERT_EQ(results.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].spec.name, "spec" + std::to_string(i));
    EXPECT_TRUE(results[static_cast<size_t>(i)].ok);
  }
}

TEST(RunnerTest, TransientFailureIsRetriedOnce) {
  std::mutex mu;
  std::map<std::string, int> tries;
  RunnerOptions options = QuietOptions(2);
  options.run_fn = [&](const ExperimentSpec& spec) -> ExperimentResult {
    int attempt;
    {
      std::lock_guard<std::mutex> lock(mu);
      attempt = ++tries[spec.name];
    }
    if (spec.name == "flaky" && attempt == 1) {
      throw std::runtime_error("transient");
    }
    if (spec.name == "broken") {
      throw std::runtime_error("permanent");
    }
    ExperimentResult result;
    result.spec = spec;
    result.ok = true;
    return result;
  };
  ExperimentRunner runner(options);
  runner.Submit(SmallSpec("flaky", "gups", PolicyKind::kStatic));
  runner.Submit(SmallSpec("broken", "gups", PolicyKind::kStatic));
  runner.Submit(SmallSpec("fine", "gups", PolicyKind::kStatic));
  const std::vector<ExperimentResult> results = runner.RunAll();
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].attempts, 2);
  EXPECT_EQ(results[1].error, "permanent");
  EXPECT_TRUE(results[2].ok);
  EXPECT_EQ(results[2].attempts, 1);
}

// ------------------------------------------------------- Core budget split

TEST(CoreSplitTest, LeftoverBudgetBecomesHostThreads) {
  struct Case {
    int jobs;
    size_t specs;
    int workers;
    int share;
  };
  for (const Case& c : {Case{2, 1, 1, 2}, Case{8, 45, 8, 1}, Case{8, 3, 3, 2},
                        Case{4, 4, 4, 1}, Case{1, 1, 1, 1}, Case{4, 0, 1, 4}}) {
    const CoreSplit split = SplitCores(c.jobs, c.specs);
    EXPECT_EQ(split.workers, c.workers) << c.jobs << " jobs, " << c.specs << " specs";
    EXPECT_EQ(split.share, c.share) << c.jobs << " jobs, " << c.specs << " specs";
  }
}

TEST(CoreSplitTest, NonPositiveJobsResolveToHardwareConcurrencyFirst) {
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int jobs : {0, -3}) {
    const CoreSplit lone = SplitCores(jobs, 1);
    EXPECT_EQ(lone.workers, 1);
    EXPECT_EQ(lone.share, hw);
    const CoreSplit sweep = SplitCores(jobs, 1000);
    EXPECT_EQ(sweep.workers, hw);
    EXPECT_EQ(sweep.share, 1);
  }
}

size_t LiveThreads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(std::distance(begin(tasks), end(tasks)));
}

TEST(RunnerTest, PoolHoldsOneWorkerPerConcurrentExperiment) {
  // --jobs=8 over 3 specs: three workers, each running one spec. Every
  // run_fn waits until all three are in flight (so fewer workers would
  // time out) and counts the process's threads while they are (so more
  // workers would show up as extra threads). The count is an upper bound:
  // a thread an earlier test joined may still be listed in `before`.
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task";
  }
  constexpr size_t kSpecs = 3;
  std::mutex mu;
  std::condition_variable all_in;
  size_t arrived = 0;
  std::set<std::thread::id> workers;
  size_t threads_in_flight = 0;
  RunnerOptions options = QuietOptions(8);
  options.run_fn = [&](const ExperimentSpec& spec) {
    std::unique_lock<std::mutex> lock(mu);
    workers.insert(std::this_thread::get_id());
    if (++arrived == kSpecs) {
      threads_in_flight = LiveThreads();
      all_in.notify_all();
    }
    ExperimentResult result;
    result.spec = spec;
    result.ok = all_in.wait_for(lock, std::chrono::seconds(10), [&] { return arrived == kSpecs; });
    return result;
  };
  ExperimentRunner runner(options);
  for (size_t i = 0; i < kSpecs; ++i) {
    runner.Submit(SmallSpec("spec" + std::to_string(i), "gups", PolicyKind::kStatic));
  }
  const size_t before = LiveThreads();
  const std::vector<ExperimentResult> results = runner.RunAll();
  for (const ExperimentResult& result : results) {
    EXPECT_TRUE(result.ok) << "experiments never ran concurrently";
  }
  EXPECT_EQ(workers.size(), kSpecs);
  EXPECT_LE(threads_in_flight, before + kSpecs);
}

TEST(RunnerTest, FillsHostThreadsUnlessTheSpecSetsThem) {
  // --jobs=4 over 2 specs: a share of 2 each. A spec that pins its own
  // host_threads keeps it.
  std::mutex mu;
  std::map<std::string, int> seen;
  RunnerOptions options = QuietOptions(4);
  options.run_fn = [&](const ExperimentSpec& spec) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seen[spec.name] = spec.config.host_threads;
    }
    ExperimentResult result;
    result.spec = spec;
    result.ok = true;
    return result;
  };
  ExperimentRunner runner(options);
  runner.Submit(SmallSpec("auto", "gups", PolicyKind::kStatic));
  ExperimentSpec pinned = SmallSpec("pinned", "gups", PolicyKind::kStatic);
  pinned.config.host_threads = 3;
  runner.Submit(pinned);
  runner.RunAll();
  EXPECT_EQ(seen["auto"], 2);
  EXPECT_EQ(seen["pinned"], 3);
}

// ------------------------------------------------ Host-step error surfacing

// A three-host fleet (one VM per host) where hosts 1 and 2 throw from an
// event on their own queue, i.e. inside StepUntil. Host 2 throws earlier in
// virtual time, so on a parallel step it usually throws first in host time
// too; host 1's error must still be the one reported.
ExperimentResult RunThrowingFleet(const ExperimentSpec& spec) {
  ExperimentResult result;
  result.spec = spec;
  result.seed = DeriveSeed(spec);
  MachineConfig config = spec.config;
  config.seed = result.seed;
  Cluster cluster(config, spec.cluster);
  for (const VmSetup& setup : spec.vms) {
    cluster.AddVm(setup);
  }
  cluster.host(1).events().Schedule(18 * kMillisecond,
                                    [](Nanos) { throw std::runtime_error("host 1 failed"); });
  cluster.host(2).events().Schedule(12 * kMillisecond,
                                    [](Nanos) { throw std::runtime_error("host 2 failed"); });
  cluster.Run();
  result.ok = true;
  return result;
}

ExperimentSpec ThreeHostSpec(int host_threads) {
  ExperimentSpec spec = SmallSpec("throwing-fleet", "gups", PolicyKind::kDemeter);
  spec.vms = {spec.vms[0], spec.vms[0], spec.vms[0]};
  spec.config.host_threads = host_threads;
  spec.cluster.num_hosts = 3;
  spec.cluster.placement = PlacementPolicy::kSpread;
  return spec;
}

TEST(RunnerTest, HostStepErrorBecomesFailedResultOnEveryPath) {
  // host_threads 0 takes the runner's share (3 of --jobs=3, the parallel
  // step); 1 pins the serial step. Both must report the same failure.
  for (const int host_threads : {0, 1}) {
    RunnerOptions options = QuietOptions(3);
    options.run_fn = RunThrowingFleet;
    ExperimentRunner runner(options);
    runner.Submit(ThreeHostSpec(host_threads));
    const std::vector<ExperimentResult> results = runner.RunAll();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].spec.config.host_threads, host_threads == 0 ? 3 : 1);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 2);
    EXPECT_EQ(results[0].error, "host 1 failed") << host_threads << " host threads";
  }
}

// ----------------------------------------------- Determinism across --jobs=N

std::vector<ExperimentSpec> DeterminismSpecs() {
  std::vector<ExperimentSpec> specs = {
      SmallSpec("a", "gups", PolicyKind::kDemeter, 80000),
      SmallSpec("b", "gups", PolicyKind::kTpp, 80000),
      SmallSpec("c", "btree", PolicyKind::kDemeter, 60000),
      SmallSpec("d", "gups", PolicyKind::kMemtis, 80000),
  };
  // A faulted spec rides along so --jobs determinism covers the injector
  // (its streams must key off the spec seed, never thread identity).
  ExperimentSpec faulted = SmallSpec("e", "gups", PolicyKind::kDemeter, 80000);
  faulted.config.faults =
      *FaultPlan::Parse("bdrop=0.3,stall=2ms/8ms,crash=3ms/20ms,pebsdrop=0.3,migfail=0.2");
  specs.push_back(faulted);
  return specs;
}

std::vector<ExperimentResult> RunWithJobs(int jobs) {
  ExperimentRunner runner(QuietOptions(jobs));
  runner.SubmitAll(DeterminismSpecs());
  return runner.RunAll();
}

TEST(RunnerDeterminismTest, SameResultsWithOneAndEightJobs) {
  const std::vector<ExperimentResult> serial = RunWithJobs(1);
  const std::vector<ExperimentResult> parallel = RunWithJobs(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const ExperimentResult& a = serial[i];
    const ExperimentResult& b = parallel[i];
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_EQ(a.vms.size(), b.vms.size());
    for (size_t v = 0; v < a.vms.size(); ++v) {
      const VmRunResult& x = a.vms[v];
      const VmRunResult& y = b.vms[v];
      EXPECT_EQ(x.transactions, y.transactions);
      EXPECT_EQ(x.elapsed_s, y.elapsed_s);  // Bit-identical, not approximate.
      EXPECT_EQ(x.tlb.hits, y.tlb.hits);
      EXPECT_EQ(x.tlb.misses, y.tlb.misses);
      EXPECT_EQ(x.tlb.single_flushes, y.tlb.single_flushes);
      EXPECT_EQ(x.tlb.full_flushes, y.tlb.full_flushes);
      EXPECT_EQ(x.vm_stats.accesses, y.vm_stats.accesses);
      EXPECT_EQ(x.vm_stats.pages_promoted, y.vm_stats.pages_promoted);
      EXPECT_EQ(x.vm_stats.pages_demoted, y.vm_stats.pages_demoted);
      EXPECT_EQ(x.txn_latency_ns.count(), y.txn_latency_ns.count());
      EXPECT_EQ(x.txn_latency_ns.Percentile(50), y.txn_latency_ns.Percentile(50));
      EXPECT_EQ(x.txn_latency_ns.Percentile(90), y.txn_latency_ns.Percentile(90));
      EXPECT_EQ(x.txn_latency_ns.Percentile(99), y.txn_latency_ns.Percentile(99));
      EXPECT_EQ(x.txn_latency_ns.Percentile(99.9), y.txn_latency_ns.Percentile(99.9));
    }
    // The structured serialization is byte-identical too.
    EXPECT_EQ(JsonLinesSink::ToJsonLines(a), JsonLinesSink::ToJsonLines(b));
  }
}

TEST(RunnerDeterminismTest, SeedIndependentOfSubmissionOrder) {
  std::vector<ExperimentSpec> specs = DeterminismSpecs();
  ExperimentRunner forward(QuietOptions(2));
  forward.SubmitAll(specs);
  ExperimentRunner backward(QuietOptions(2));
  for (auto it = specs.rbegin(); it != specs.rend(); ++it) {
    backward.Submit(*it);
  }
  const std::vector<ExperimentResult> f = forward.RunAll();
  const std::vector<ExperimentResult> b = backward.RunAll();
  ASSERT_EQ(f.size(), b.size());
  for (size_t i = 0; i < f.size(); ++i) {
    const ExperimentResult& fwd = f[i];
    const ExperimentResult& bwd = b[f.size() - 1 - i];
    EXPECT_EQ(fwd.spec.name, bwd.spec.name);
    EXPECT_EQ(fwd.seed, bwd.seed);
    EXPECT_EQ(fwd.vms[0].elapsed_s, bwd.vms[0].elapsed_s);
  }
}

}  // namespace
}  // namespace demeter
