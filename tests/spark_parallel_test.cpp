// The parallel data plane's contract (DESIGN.md §11): evaluating a stage's
// task host functions across a thread pool changes nothing observable.
// Whole runs serialize to the same bytes for every thread count, engine
// counters and charged costs agree exactly with serial execution, fault mode
// ignores the knob entirely, and the thread budget keeps nested sweep x
// task parallelism from oversubscribing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/running_median.hpp"
#include "core/thread_budget.hpp"
#include "core/thread_pool.hpp"
#include "dfs/dfs.hpp"
#include "fault/scenario.hpp"
#include "mem/machine.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/serialize.hpp"
#include "sim/simulator.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/runner.hpp"

namespace tsx {
namespace {

using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

/// Scoped TSX_TASK_THREADS: set on construction, cleared on destruction.
class TaskThreadsGuard {
 public:
  explicit TaskThreadsGuard(int threads) {
    setenv("TSX_TASK_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~TaskThreadsGuard() { unsetenv("TSX_TASK_THREADS"); }
  TaskThreadsGuard(const TaskThreadsGuard&) = delete;
  TaskThreadsGuard& operator=(const TaskThreadsGuard&) = delete;
};

// ---------------------------------------------------------------------------
// Whole-run byte identity
// ---------------------------------------------------------------------------

class ParallelPlaneByteIdentity : public ::testing::TestWithParam<App> {};

TEST_P(ParallelPlaneByteIdentity, TinyRunMatchesSerialAtEveryThreadCount) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier2;  // NVM: asymmetry + wear in the result
  unsetenv("TSX_TASK_THREADS");
  const std::string serial = runner::to_json(workloads::run_workload(cfg));
  for (const int threads : {2, 4, 8}) {
    TaskThreadsGuard guard(threads);
    EXPECT_EQ(serial, runner::to_json(workloads::run_workload(cfg)))
        << workloads::to_string(cfg.app) << " diverged at " << threads
        << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, ParallelPlaneByteIdentity,
                         ::testing::ValuesIn(workloads::kAllApps));

TEST(ParallelPlane, DynamicTieringRunMatchesSerial) {
  // The tiering engine's hotness tracker is the most order-sensitive
  // consumer of task side effects (every put/access bumps LFU state the
  // next epoch's migration decisions read). Exercise it end to end.
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier2;
  cfg.tiering.policy = tiering::PolicyKind::kLfuPromote;
  unsetenv("TSX_TASK_THREADS");
  const std::string serial = runner::to_json(workloads::run_workload(cfg));
  TaskThreadsGuard guard(8);
  EXPECT_EQ(serial, runner::to_json(workloads::run_workload(cfg)));
}

TEST(ParallelPlane, SmallScaleRunMatchesSerial) {
  // One bigger-than-tiny configuration so real eviction/reuse pressure on
  // the block manager and multi-stage shuffles are covered too.
  RunConfig cfg;
  cfg.app = App::kBayes;
  cfg.scale = ScaleId::kSmall;
  cfg.tier = mem::TierId::kTier0;
  unsetenv("TSX_TASK_THREADS");
  const std::string serial = runner::to_json(workloads::run_workload(cfg));
  TaskThreadsGuard guard(4);
  EXPECT_EQ(serial, runner::to_json(workloads::run_workload(cfg)));
}

TEST(ParallelPlane, FaultModeIgnoresTaskThreads) {
  // Recovery scheduling is adaptive (retries, speculation, lost-output
  // reruns) and stays on the serial path: TSX_TASK_THREADS must change
  // nothing about a faulted run.
  // Each drill must actually fault, or the comparison shows nothing.
  const struct {
    App app;
    ScaleId scale;
    const char* scenario;
  } drills[] = {{App::kSort, ScaleId::kSmall, "crash"},
                {App::kPagerank, ScaleId::kTiny, "straggler"}};
  for (const auto& d : drills) {
    RunConfig cfg;
    cfg.app = d.app;
    cfg.scale = d.scale;
    cfg.executors = 2;
    cfg.cores_per_executor = 20;
    cfg.fault = fault::scenario(d.scenario);
    unsetenv("TSX_TASK_THREADS");
    const workloads::RunResult serial = workloads::run_workload(cfg);
    EXPECT_GT(serial.fault.crashes + serial.fault.stragglers, 0u)
        << d.scenario;
    if (std::string(d.scenario) == "crash") {
      EXPECT_GT(serial.fault.retries, 0u);
    }
    TaskThreadsGuard guard(8);
    EXPECT_EQ(runner::to_json(serial),
              runner::to_json(workloads::run_workload(cfg)))
        << d.scenario;
  }
}

TEST(ParallelPlane, FaultModeIgnoresShardAndPipelineKnobs) {
  // The state-shard and pipelined-commit knobs are retired: their
  // environment variables are no longer read, so stale values left in the
  // environment must not perturb a faulted parallel run.
  RunConfig cfg;
  cfg.app = App::kSort;
  cfg.scale = ScaleId::kSmall;  // small enough to run, big enough to crash
  cfg.executors = 2;
  cfg.cores_per_executor = 20;
  cfg.fault = fault::scenario("crash");
  unsetenv("TSX_TASK_THREADS");
  unsetenv("TSX_TASK_SHARDS");
  unsetenv("TSX_TASK_PIPELINE");
  const workloads::RunResult faulted = workloads::run_workload(cfg);
  EXPECT_GT(faulted.fault.crashes, 0u);
  const std::string serial = runner::to_json(faulted);
  TaskThreadsGuard threads(8);
  setenv("TSX_TASK_SHARDS", "3", 1);
  setenv("TSX_TASK_PIPELINE", "1", 1);
  const std::string parallel = runner::to_json(workloads::run_workload(cfg));
  unsetenv("TSX_TASK_SHARDS");
  unsetenv("TSX_TASK_PIPELINE");
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Engine-level determinism: cache counters, charged cpu
// ---------------------------------------------------------------------------

/// Runs a job that caches + reuses an RDD, returning (hits, misses, total
/// cpu-seconds) for exact comparison across execution modes.
struct EngineProbe {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double cpu_seconds = 0.0;
};

/// A context on its own simulated machine.
struct ProbeEngine {
  sim::Simulator simulator;
  mem::MachineModel machine{simulator};
  dfs::Dfs fs;
  spark::SparkContext sc;

  explicit ProbeEngine(int intra_run_threads)
      : sc(machine, fs, conf_with_threads(intra_run_threads), 42) {}

  static spark::SparkConf conf_with_threads(int threads) {
    spark::SparkConf conf;
    conf.intra_run_threads = threads;
    return conf;
  }
};

EngineProbe engine_probe(spark::SparkContext& sc) {
  std::vector<int> data(4000);
  std::iota(data.begin(), data.end(), 1);
  auto squares = spark::map_partitions_rdd<double>(
      spark::parallelize<int>(sc, data, 16),
      [](const std::vector<int>& part, spark::TaskContext& ctx) {
        std::vector<double> out;
        out.reserve(part.size());
        for (const int x : part) out.push_back(static_cast<double>(x) * x);
        ctx.charge_cpu_ns(static_cast<double>(part.size()) * 10.0);
        return out;
      },
      "probe");
  auto cached = spark::cache_rdd(squares);
  spark::JobMetrics first;
  spark::collect(cached, &first);  // computes + caches every partition
  spark::JobMetrics second;
  spark::collect(cached, &second);  // served from the block manager

  EngineProbe probe;
  probe.hits = sc.block_manager().hits();
  probe.misses = sc.block_manager().misses();
  probe.cpu_seconds =
      first.total_cost.cpu_seconds + second.total_cost.cpu_seconds;
  return probe;
}

EngineProbe run_engine_probe(int intra_run_threads) {
  ProbeEngine engine(intra_run_threads);
  return engine_probe(engine.sc);
}

TEST(ParallelPlane, CacheCountersAndCpuSecondsMatchSerialExactly) {
  const EngineProbe serial = run_engine_probe(1);
  EXPECT_GT(serial.cpu_seconds, 0.0);
  EXPECT_EQ(serial.misses, 16u);  // first pass computes 16 partitions
  EXPECT_EQ(serial.hits, 16u);    // second pass serves all 16 from cache
  for (const int threads : {2, 4, 8}) {
    const EngineProbe parallel = run_engine_probe(threads);
    // Bit-exact, not approximately equal: the commit phase must replay the
    // cache ops in the serial engine's order.
    EXPECT_EQ(serial.hits, parallel.hits) << threads << " threads";
    EXPECT_EQ(serial.misses, parallel.misses) << threads << " threads";
    EXPECT_EQ(serial.cpu_seconds, parallel.cpu_seconds)
        << threads << " threads";
  }
}

TEST(ParallelPlane, TaskExceptionPropagatesAndContextStaysUsable) {
  // A task that throws mid-stage fails the job after the other tasks have
  // buffered cache gets and cache puts. None of those effects may leak
  // into the context's next job: the clean job run after the failure must
  // count and charge exactly what a fresh serial context does.
  const EngineProbe serial = run_engine_probe(1);
  ProbeEngine engine(4);
  std::vector<int> data(400);
  std::iota(data.begin(), data.end(), 1);
  auto failing = spark::cache_rdd(spark::map_partitions_rdd<int>(
      spark::parallelize<int>(engine.sc, data, 16),
      [](const std::vector<int>& part, spark::TaskContext& ctx) {
        if (ctx.partition() == 5) throw Error("partition 5 failed");
        return part;
      },
      "failing"));
  EXPECT_THROW(spark::collect(failing), Error);
  EXPECT_EQ(engine.sc.block_manager().hits(), 0u);
  EXPECT_EQ(engine.sc.block_manager().misses(), 0u);

  const EngineProbe after = engine_probe(engine.sc);
  EXPECT_EQ(serial.hits, after.hits);
  EXPECT_EQ(serial.misses, after.misses);
  EXPECT_EQ(serial.cpu_seconds, after.cpu_seconds);
}

// ---------------------------------------------------------------------------
// Thread budget and pool reuse
// ---------------------------------------------------------------------------

TEST(ThreadBudget, HonorsExplicitRequestWhenNoSweepIsActive) {
  ThreadBudget& budget = ThreadBudget::global();
  ASSERT_EQ(budget.outer_workers(), 0);
  budget.set_total_for_test(4);
  EXPECT_EQ(budget.grant_inner(8), 8);  // explicit ask, even past the cores
  EXPECT_EQ(budget.grant_inner(0), 1);
  budget.set_total_for_test(0);
}

TEST(ThreadBudget, ClampsToFairShareUnderAnOuterRunner) {
  ThreadBudget& budget = ThreadBudget::global();
  budget.set_total_for_test(16);
  budget.register_outer(8);
  EXPECT_EQ(budget.grant_inner(8), 2);   // 16 cores / 8 sweep workers
  EXPECT_EQ(budget.grant_inner(1), 1);
  budget.register_outer(16);             // second runner: 24 outer workers
  EXPECT_EQ(budget.grant_inner(8), 1);   // share rounds down to serial
  budget.unregister_outer(16);
  budget.unregister_outer(8);
  EXPECT_EQ(budget.outer_workers(), 0);
  EXPECT_EQ(budget.grant_inner(8), 8);
  budget.set_total_for_test(0);
}

TEST(ThreadBudget, RunnerRegistersForItsLifetime) {
  ThreadBudget& budget = ThreadBudget::global();
  ASSERT_EQ(budget.outer_workers(), 0);
  {
    runner::RunnerOptions options;
    options.threads = 3;
    runner::ParallelRunner runner(options);
    EXPECT_EQ(budget.outer_workers(), 3);
  }
  EXPECT_EQ(budget.outer_workers(), 0);
}

TEST(ThreadPoolReuse, ManyBatchesOnOnePool) {
  // A SparkContext reuses one pool across every stage of every job; the
  // pool must survive repeated irregular batches without dropping indices.
  ThreadPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    const std::size_t n = static_cast<std::size_t>(1 + (batch * 7) % 97);
    std::vector<int> seen(n, 0);
    pool.run_batch(n, [&](std::size_t i) { ++seen[i]; });
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<std::ptrdiff_t>(n));
  }
}

TEST(ThreadPoolReuse, NestedRunnerAndTaskParallelismStaysByteIdentical) {
  // Sweep pool outside, task pools inside — the nesting the budget exists
  // for. Results must match a fully serial loop byte for byte.
  std::vector<RunConfig> configs;
  for (const App app : {App::kSort, App::kPagerank}) {
    RunConfig cfg;
    cfg.app = app;
    cfg.scale = ScaleId::kTiny;
    configs.push_back(cfg);
  }
  unsetenv("TSX_TASK_THREADS");
  std::vector<std::string> serial;
  for (const RunConfig& cfg : configs)
    serial.push_back(runner::to_json(workloads::run_workload(cfg)));

  TaskThreadsGuard guard(4);
  runner::RunnerOptions options;
  options.threads = 2;
  const auto nested = runner::ParallelRunner(options).run(configs);
  ASSERT_EQ(nested.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], runner::to_json(nested[i])) << configs[i].describe();
}

// ---------------------------------------------------------------------------
// Running median (the straggler sweep's order statistic)
// ---------------------------------------------------------------------------

TEST(RunningMedianTest, TracksNthElementExactly) {
  Rng rng(7);
  RunningMedian median;
  std::vector<double> all;
  for (int i = 0; i < 500; ++i) {
    // Mix of duplicates and spread, like task durations with stragglers.
    const double x = rng.bernoulli(0.2) ? 4.0 : rng.uniform(0.0, 10.0);
    median.push(x);
    all.push_back(x);
    std::vector<double> sorted = all;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    ASSERT_EQ(median.upper_median(), sorted[sorted.size() / 2])
        << "diverged at n=" << all.size();
  }
  EXPECT_EQ(median.size(), all.size());
}

}  // namespace
}  // namespace tsx
