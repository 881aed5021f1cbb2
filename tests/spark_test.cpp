// Tests for the Spark-like engine: RDD semantics against single-threaded
// reference computations, shuffle correctness, scheduler behaviour, caching,
// broadcast variables, cost accounting and configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "dfs/dfs.hpp"
#include "mem/machine.hpp"
#include "sim/simulator.hpp"
#include "spark/broadcast.hpp"
#include "spark/dataset_memo.hpp"
#include "spark/pair_rdd.hpp"

namespace tsx::spark {
namespace {

/// Fresh engine per test.
struct Engine {
  sim::Simulator simulator;
  mem::MachineModel machine{simulator};
  dfs::Dfs dfs;
  SparkConf conf;
  std::unique_ptr<SparkContext> sc;

  explicit Engine(SparkConf c = {}) : conf(c) {
    sc = std::make_unique<SparkContext>(machine, dfs, conf, 42);
  }
  SparkContext& ctx() { return *sc; }
};

/// Every line of a DFS text file, collected through for_each_line.
std::vector<std::string> lines_of(dfs::Dfs& fs, const std::string& path) {
  std::vector<std::string> out;
  fs.for_each_line(path, [&out](std::string_view line) {
    out.emplace_back(line);
  });
  return out;
}

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// --- conf ----------------------------------------------------------------------

TEST(SparkConf, DefaultsMatchPaperDeployment) {
  const SparkConf conf;
  EXPECT_EQ(conf.executor_instances, 1);
  EXPECT_EQ(conf.cores_per_executor, 40);
  EXPECT_EQ(conf.mem_bind, mem::TierId::kTier0);
  EXPECT_EQ(conf.total_cores(), 40);
}

TEST(SparkConf, UnsetOverridesFollowTheHeapBind) {
  SparkConf conf;
  conf.mem_bind = mem::TierId::kTier2;
  conf.shuffle_bind = mem::TierId::kTier0;
  conf.cache_bind = mem::TierId::kTier1;
  EXPECT_EQ(conf.tier_for(StreamClass::kHeap), mem::TierId::kTier2);
  EXPECT_EQ(conf.tier_for(StreamClass::kShuffle), mem::TierId::kTier0);
  EXPECT_EQ(conf.tier_for(StreamClass::kCache), mem::TierId::kTier1);
  conf.mem_bind = mem::TierId::kTier3;
  conf.cache_bind.reset();
  EXPECT_EQ(conf.tier_for(StreamClass::kCache), mem::TierId::kTier3);
  EXPECT_EQ(conf.tier_for(StreamClass::kShuffle), mem::TierId::kTier0);
}

// --- task cost accounting ---------------------------------------------------------

TEST(TaskContext, ChargesScaleWithMultiplier) {
  TaskContext ctx(0, 0, default_cost_model(), 10.0, Rng(1));
  ctx.charge_cpu(Duration::seconds(1));
  ctx.charge_stream_read(Bytes::of(100));
  ctx.charge_dep_writes(5);
  ctx.charge_io(Duration::seconds(2));
  ctx.charge_disk_read(Bytes::of(50));
  ctx.charge_cpu_unscaled(Duration::seconds(3));
  const TaskCost& c = ctx.cost();
  EXPECT_DOUBLE_EQ(c.cpu_seconds, 13.0);  // 1*10 + 3 unscaled
  EXPECT_DOUBLE_EQ(c.stream_read().b(), 1000.0);
  EXPECT_DOUBLE_EQ(c.dep_writes, 50.0);
  EXPECT_DOUBLE_EQ(c.io_seconds, 20.0);
  EXPECT_DOUBLE_EQ(c.disk_read.b(), 500.0);
}

TEST(TaskCost, AccumulatesAndDetectsZero) {
  TaskCost a;
  EXPECT_TRUE(a.is_zero());
  TaskCost b;
  b.cpu_seconds = 1.0;
  b.stream_write_by[0] = Bytes::of(10);
  a += b;
  a += b;
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 2.0);
  EXPECT_DOUBLE_EQ(a.stream_write().b(), 20.0);
  EXPECT_FALSE(a.is_zero());
}

TEST(TaskContext, RejectsNegativeCharges) {
  TaskContext ctx(0, 0, default_cost_model(), 1.0, Rng(1));
  EXPECT_THROW(ctx.charge_cpu(Duration::seconds(-1)), tsx::Error);
  EXPECT_THROW(ctx.charge_dep_reads(-1), tsx::Error);
}

// --- sizer ----------------------------------------------------------------------

TEST(Sizer, CoversCommonTypes) {
  EXPECT_DOUBLE_EQ(est_bytes(1.0), 8.0);
  EXPECT_DOUBLE_EQ(est_bytes(std::string("abcd")), 12.0);
  EXPECT_DOUBLE_EQ(est_bytes(std::make_pair(1, 2.0)), 12.0);
  EXPECT_DOUBLE_EQ(est_bytes(std::array<double, 3>{1, 2, 3}), 24.0);
  const std::vector<std::pair<int, float>> v = {{1, 2.0f}, {3, 4.0f}};
  EXPECT_DOUBLE_EQ(est_bytes(v), 16.0 + 16.0);
  EXPECT_DOUBLE_EQ(est_bytes_all(std::vector<int>{1, 2, 3}), 12.0);
}

// --- RDD semantics vs reference -----------------------------------------------------

TEST(Rdd, ParallelizeCollectIdentity) {
  Engine e;
  const auto data = iota_vec(100);
  auto rdd = parallelize<int>(e.ctx(), data, 7);
  EXPECT_EQ(rdd->num_partitions(), 7u);
  EXPECT_EQ(collect(rdd), data);
}

TEST(Rdd, MapMatchesReference) {
  Engine e;
  auto rdd = map_rdd(parallelize<int>(e.ctx(), iota_vec(50), 4),
                     [](const int& x) { return x * x; });
  const auto out = collect(rdd);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(Rdd, FlatMapExpands) {
  Engine e;
  auto rdd = flat_map_rdd<int>(parallelize<int>(e.ctx(), iota_vec(10), 3),
                               [](const int& x, std::vector<int>& out) {
                                 out.insert(out.end(),
                                            static_cast<std::size_t>(x), x);
                               });
  EXPECT_EQ(count(rdd), 45u);  // 0+1+...+9
}

TEST(Rdd, SampleIsDeterministicSubset) {
  Engine e;
  auto base = parallelize<int>(e.ctx(), iota_vec(1000), 4);
  auto s = sample_rdd(base, 0.3);
  const auto out1 = collect(s);
  const auto out2 = collect(s);
  EXPECT_EQ(out1, out2);  // deterministic across jobs
  EXPECT_GT(out1.size(), 200u);
  EXPECT_LT(out1.size(), 400u);
}

TEST(Rdd, SampleOverMapDrawsAndChargesAsBefore) {
  // A sample over a map maps only the records it keeps, but draws once per
  // record and bills the whole partition: the records and the job's charged
  // work are pinned exactly.
  Engine e;
  auto mapped = map_rdd(parallelize<int>(e.ctx(), iota_vec(200), 4),
                        [](const int& x) { return x * 10; });
  JobMetrics jm;
  EXPECT_EQ(collect(sample_rdd(mapped, 0.1), &jm),
            (std::vector<int>{0, 160, 200, 310, 740, 980, 1130, 1180, 1210,
                              1500, 1730, 1880}));
  const TaskCost& c = jm.total_cost;
  EXPECT_EQ(c.cpu_seconds, 4.2038400000000007e-05);
  EXPECT_EQ(c.io_seconds, 0.0);
  EXPECT_EQ(c.dep_reads, 600.0);
  EXPECT_EQ(c.dep_writes, 600.0);
  EXPECT_EQ(c.stream_read().b(), 800.0);
  EXPECT_EQ(c.stream_write().b(), 0.0);
  EXPECT_EQ(jm.duration().sec(), 0.057033879990625813);
}

TEST(Rdd, ReduceAndCount) {
  Engine e;
  auto rdd = parallelize<int>(e.ctx(), iota_vec(101), 8);
  EXPECT_EQ(count(rdd), 101u);
  EXPECT_EQ(reduce(rdd, [](int a, int b) { return a + b; }), 5050);
}

TEST(Rdd, ReduceOfEmptyThrows) {
  Engine e;
  auto rdd = parallelize<int>(e.ctx(), {}, 2);
  EXPECT_THROW(reduce(rdd, [](int a, int b) { return a + b; }), tsx::Error);
}

TEST(Rdd, GeneratorDeterministicAcrossJobs) {
  Engine e;
  auto gen = generate_rdd<std::uint64_t>(
      e.ctx(), "g", 4,
      [](std::size_t, Rng& rng) {
        std::vector<std::uint64_t> out;
        for (int i = 0; i < 10; ++i) out.push_back(rng.next_u64());
        return out;
      });
  EXPECT_EQ(collect(gen), collect(gen));
}

TEST(Rdd, SaveAsTextFileWritesDfs) {
  Engine e;
  auto rdd = map_rdd(parallelize<int>(e.ctx(), iota_vec(10), 2),
                     [](const int& x) { return x; });
  save_as_text_file(rdd, "/out", [](std::string& out, const int& x) {
    out += std::to_string(x);
  });
  const auto out = lines_of(e.dfs, "/out");
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[3], "3");
}

// --- broadcast ---------------------------------------------------------------------

TEST(BroadcastVar, ValueVisibleAndSized) {
  const std::vector<double> table(1000, 1.5);
  const Broadcast<std::vector<double>> bc = broadcast(table);
  EXPECT_DOUBLE_EQ(bc.size().b(), est_bytes(table));
  EXPECT_EQ(bc.driver_value().size(), 1000u);
}

TEST(BroadcastVar, ChargesTaskOnAccess) {
  const Broadcast<std::vector<double>> bc =
      broadcast(std::vector<double>(1000, 2.0));
  TaskContext ctx(0, 0, default_cost_model(), 1.0, Rng(1));
  const auto& v = bc.value(ctx);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_GE(ctx.cost().stream_read().b(), 8000.0);
}

TEST(BroadcastVar, UsableInsideJobs) {
  Engine e;
  auto bc = std::make_shared<Broadcast<int>>(broadcast(7));
  auto rdd = map_partitions_rdd<int>(
      parallelize<int>(e.ctx(), iota_vec(10), 2),
      [bc](const std::vector<int>& in, TaskContext& ctx) {
        const int scale = bc->value(ctx);
        std::vector<int> data = in;
        for (int& x : data) x *= scale;
        return data;
      },
      "scaleBy");
  EXPECT_EQ(reduce(rdd, [](int a, int b) { return a + b; }), 45 * 7);
}

// --- dataset memo ------------------------------------------------------------------

/// get_or_make on a fixed entry, counting how often the data is made. The
/// reader is a shuffle-map task unless `kind` says otherwise.
std::vector<int> memo_get(DatasetMemo& memo, int* makes, int rdd_id = 1,
                          const std::string& name = "g",
                          std::size_t partitions = 4, std::size_t part = 0,
                          TaskKind kind = TaskKind::kShuffleMap) {
  return *memo.get_or_make<int>(rdd_id, name, partitions, part, kind,
                                [makes] {
                                  ++*makes;
                                  return std::vector<int>{7, 8, 9};
                                });
}

std::vector<int> memo_get_by_action(DatasetMemo& memo, int* makes) {
  return memo_get(memo, makes, 1, "g", 4, 0, TaskKind::kResult);
}

TEST(DatasetMemo, StoresFromTheSecondBindAndHitsOnTheThird) {
  DatasetMemo memo;
  int makes = 0;
  EXPECT_FALSE(memo.bind("group"));
  EXPECT_EQ(memo_get(memo, &makes), (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(memo_get(memo, &makes), (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(makes, 2);  // first bind: never stored
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_TRUE(memo.bind("group"));
  memo_get(memo, &makes);
  EXPECT_EQ(makes, 3);  // second bind: made once, stored
  EXPECT_EQ(memo.size(), 1u);
  memo_get(memo, &makes);
  EXPECT_EQ(makes, 3);  // ... and served within the same run
  memo.bind("group");
  EXPECT_EQ(memo_get(memo, &makes), (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(makes, 3);  // third bind: a hit
}

TEST(DatasetMemo, NewGroupClearsTheSlot) {
  DatasetMemo memo;
  int makes = 0;
  memo.bind("a");
  memo.bind("a");
  memo_get(memo, &makes);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_FALSE(memo.bind("b"));
  EXPECT_EQ(memo.size(), 0u);
  memo_get(memo, &makes);
  EXPECT_EQ(makes, 2);
  EXPECT_EQ(memo.size(), 0u);  // "b" is on its first bind
  memo.bind("a");               // back to "a": a new group again
  memo_get(memo, &makes);
  EXPECT_EQ(makes, 3);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(DatasetMemo, EveryKeyFieldMustMatch) {
  DatasetMemo memo;
  int makes = 0;
  memo.bind("g");
  memo.bind("g");
  memo_get(memo, &makes, 1, "g", 4, 0);
  ASSERT_EQ(makes, 1);
  memo_get(memo, &makes, 2, "g", 4, 0);  // rdd id
  memo_get(memo, &makes, 1, "h", 4, 0);  // name
  memo_get(memo, &makes, 1, "g", 5, 0);  // partition count
  memo_get(memo, &makes, 1, "g", 4, 1);  // partition
  EXPECT_EQ(makes, 5);
  int long_makes = 0;
  const auto as_long = memo.get_or_make<long>(
      1, "g", 4, 0, TaskKind::kShuffleMap, [&long_makes] {
        ++long_makes;
        return std::vector<long>{1};
      });
  EXPECT_EQ(long_makes, 1);  // element type
  EXPECT_EQ(*as_long, std::vector<long>{1});
  memo_get(memo, &makes, 1, "g", 4, 0);
  EXPECT_EQ(makes, 5);  // the original entry still hits
}

TEST(DatasetMemo, ConcurrentCallersGetEqualData) {
  DatasetMemo memo;
  memo.bind("g");
  memo.bind("g");
  const auto make = [] {
    std::vector<std::string> out;
    for (int i = 0; i < 200; ++i) out.push_back("row" + std::to_string(i));
    return out;
  };
  std::vector<std::vector<std::string>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 4; ++i)
        got[t] = *memo.get_or_make<std::string>(3, "rows", 4, i % 2,
                                                TaskKind::kShuffleMap, make);
    });
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g, make());
  EXPECT_EQ(memo.size(), 2u);
}

TEST(DatasetMemo, GeneratedDataAndChargesMatchAFreshContext) {
  const auto run = [](DatasetMemo* memo) {
    Engine e;
    e.ctx().set_dataset_memo(memo);
    auto gen = generate_rdd<std::uint64_t>(
        e.ctx(), "g", 4, [](std::size_t, Rng& rng) {
          std::vector<std::uint64_t> out;
          for (int i = 0; i < 50; ++i) out.push_back(rng.next_u64());
          return out;
        });
    auto data = collect(gen);
    const auto again = collect(gen);
    EXPECT_EQ(data, again);
    return std::make_tuple(data, e.simulator.now().sec(),
                           e.ctx().scheduler().lifetime_cost().cpu_seconds);
  };
  DatasetMemo memo;
  const auto fresh = run(nullptr);
  {
    const DatasetMemo::Run one_off(memo, "g");
    EXPECT_EQ(run(&memo), fresh);  // the first collect stores, the second hits
    EXPECT_EQ(memo.size(), 4u);
  }
  EXPECT_EQ(memo.size(), 0u);  // ... and the run's end drops them
  {
    const DatasetMemo::Run kept(memo, "g");
    EXPECT_EQ(run(&memo), fresh);  // stores
  }
  EXPECT_EQ(memo.size(), 4u);
  {
    const DatasetMemo::Run kept(memo, "g");
    EXPECT_EQ(run(&memo), fresh);  // every partition a hit
  }
}

TEST(DatasetMemo, ActionMadePartitionIsStoredAndAShuffleMapHitTakesIt) {
  DatasetMemo memo;
  ASSERT_FALSE(memo.bind("g"));
  int makes = 0;
  EXPECT_EQ(memo_get_by_action(memo, &makes), (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(makes, 1);
  EXPECT_EQ(memo.size(), 1u);  // a result task's partition is stored
  memo_get_by_action(memo, &makes);
  EXPECT_EQ(makes, 1);  // another action shares it
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo_get(memo, &makes), (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(makes, 1);         // the shuffle-map read hits ...
  EXPECT_EQ(memo.size(), 0u);  // ... and empties the slot
  memo_get(memo, &makes);
  EXPECT_EQ(makes, 2);  // a second map read (a recovery) regenerates
}

TEST(DatasetMemo, ShuffleMapMissNeverStoresInARunThatIsNotKept) {
  DatasetMemo memo;
  memo.bind("g");
  int makes = 0;
  memo_get(memo, &makes);
  memo_get(memo, &makes);
  EXPECT_EQ(makes, 2);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(DatasetMemo, RunEndClearsARunThatIsNotKept) {
  DatasetMemo memo;
  int makes = 0;
  {
    const DatasetMemo::Run run(memo, "g");
    EXPECT_FALSE(run.kept());
    memo_get_by_action(memo, &makes);
    EXPECT_EQ(memo.size(), 1u);
  }
  EXPECT_EQ(memo.size(), 0u);
  // A run that throws drops its partitions too.
  EXPECT_THROW(
      {
        const DatasetMemo::Run run(memo, "h");
        memo_get_by_action(memo, &makes);
        ASSERT_EQ(memo.size(), 1u);
        throw std::runtime_error("run failed");
      },
      std::runtime_error);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(DatasetMemo, KeptRunStoresEverythingAndNeverDrops) {
  DatasetMemo memo;
  int makes = 0;
  { const DatasetMemo::Run first(memo, "g"); }
  {
    const DatasetMemo::Run kept(memo, "g");
    EXPECT_TRUE(kept.kept());
    memo_get(memo, &makes);  // a shuffle-map miss stores
    EXPECT_EQ(memo.size(), 1u);
    memo_get(memo, &makes);  // a shuffle-map hit leaves it in place
    memo_get_by_action(memo, &makes);
    EXPECT_EQ(makes, 1);
    EXPECT_EQ(memo.size(), 1u);
  }
  EXPECT_EQ(memo.size(), 1u);  // the run's end keeps it for the next run
  {
    const DatasetMemo::Run next(memo, "g");
    memo_get(memo, &makes);
    EXPECT_EQ(makes, 1);
  }
}

TEST(DatasetMemo, OneOffSortGeneratesEachPartitionOnce) {
  // sortByKey samples its input in one job and shuffles it in the next:
  // without a memo each partition is generated twice, on a one-off run's
  // memo once, and nothing is left held.
  const auto generations = [](DatasetMemo* memo) {
    Engine e;
    e.ctx().set_dataset_memo(memo);
    auto made = std::make_shared<std::vector<int>>(4, 0);
    auto gen = generate_rdd<std::pair<int, int>>(
        e.ctx(), "pairs", 4, [made](std::size_t p, Rng& rng) {
          ++(*made)[p];
          std::vector<std::pair<int, int>> out;
          for (int i = 0; i < 50; ++i)
            out.emplace_back(static_cast<int>(rng.next_u64() % 1000), i);
          return out;
        });
    save_as_text_file(sort_by_key(gen, 3), "/sorted",
                      [](std::string& out, const std::pair<int, int>& kv) {
                        out += std::to_string(kv.first);
                      });
    EXPECT_EQ(lines_of(e.dfs, "/sorted").size(), 200u);
    return *made;
  };
  EXPECT_EQ(generations(nullptr), (std::vector<int>{2, 2, 2, 2}));
  DatasetMemo memo;
  const DatasetMemo::Run one_off(memo, "sort");
  EXPECT_EQ(generations(&memo), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(memo.size(), 0u);
}

// --- caching -----------------------------------------------------------------------

TEST(Rdd, CacheAvoidsRecompute) {
  Engine e;
  auto computes = std::make_shared<int>(0);
  auto gen = generate_rdd<int>(
      e.ctx(), "counted", 2,
      [computes](std::size_t, Rng&) {
        ++*computes;
        return std::vector<int>{1, 2, 3};
      },
      /*charge_input_io=*/false);
  auto cached = cache_rdd(gen);
  collect(cached);
  EXPECT_EQ(*computes, 2);  // one per partition
  collect(cached);
  EXPECT_EQ(*computes, 2);  // served from the block manager
  EXPECT_GE(e.ctx().block_manager().hits(), 2u);
}

/// A block holding one int.
BlockData block(int value) { return std::make_shared<const std::any>(value); }

TEST(BlockManager, LruEvictionUnderPressure) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  mem::TieredAllocator alloc(machine.topology());
  BlockManager bm(alloc, Bytes::of(100), 0);
  EXPECT_TRUE(bm.put({1, 0}, block(1), Bytes::of(60)));
  EXPECT_TRUE(bm.put({1, 1}, block(2), Bytes::of(60)));  // evicts {1,0}
  EXPECT_FALSE(bm.has({1, 0}));
  EXPECT_TRUE(bm.has({1, 1}));
  EXPECT_EQ(bm.evictions(), 1u);
  EXPECT_FALSE(bm.put({1, 2}, block(3), Bytes::of(200)));  // larger than budget
  EXPECT_DOUBLE_EQ(bm.bytes_cached().b(), 60.0);
}

TEST(BlockManager, GetRefreshesLru) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  mem::TieredAllocator alloc(machine.topology());
  BlockManager bm(alloc, Bytes::of(100), 0);
  bm.put({1, 0}, block(1), Bytes::of(40));
  bm.put({1, 1}, block(2), Bytes::of(40));
  EXPECT_NE(bm.get({1, 0}), nullptr);  // now {1,1} is LRU
  bm.put({1, 2}, block(3), Bytes::of(40));
  EXPECT_TRUE(bm.has({1, 0}));
  EXPECT_FALSE(bm.has({1, 1}));
}

/// Records every tiering callback, in order, for exact comparison.
struct RecordingHooks final : TieringHooks {
  using Event = std::tuple<char, StreamClass, RegionId, double, int>;
  std::vector<Event> events;

  void on_region_put(StreamClass cls, RegionId id, Bytes bytes) override {
    events.emplace_back('p', cls, id, bytes.b(), 0);
  }
  void on_region_access(StreamClass cls, RegionId id, Bytes bytes,
                        mem::AccessKind kind) override {
    events.emplace_back('a', cls, id, bytes.b(), static_cast<int>(kind));
  }
  void on_region_drop(StreamClass cls, RegionId id) override {
    events.emplace_back('d', cls, id, 0.0, 0);
  }
  std::vector<TierShare> traffic_split(StreamClass) const override {
    return {};
  }
};

TEST(BlockManager, DropLruReportsTheDroppedRegion) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  mem::TieredAllocator alloc(machine.topology());
  RecordingHooks hooks;  // outlives bm, whose destructor drops blocks
  BlockManager bm(alloc, Bytes::of(100), 0);
  bm.set_tiering(&hooks);
  bm.put({3, 7}, block(1), Bytes::of(10));
  bm.put({4, 0}, block(2), Bytes::of(10));
  ASSERT_TRUE(bm.drop_lru());
  EXPECT_FALSE(bm.has({3, 7}));
  EXPECT_EQ(hooks.events.back(),
            RecordingHooks::Event('d', StreamClass::kCache,
                                  cache_region(3, 7), 0.0, 0));
}

// --- zero-copy partitions ------------------------------------------------------------

/// Where each partition's records lived when a map_partitions task read them.
std::vector<const int*> viewed_addresses(const RddPtr<int>& rdd) {
  auto seen = std::make_shared<std::vector<const int*>>(rdd->num_partitions());
  collect(map_partitions_rdd<int>(
      rdd,
      [seen](const std::vector<int>& in, TaskContext& ctx) {
        (*seen)[ctx.partition()] = in.data();
        return std::vector<int>{};
      },
      "probe"));
  return *seen;
}

/// The buffer a cached partition's block holds.
const int* block_address(SparkContext& sc, const RddPtr<int>& rdd,
                         std::size_t part) {
  const BlockData block = sc.block_manager().get({rdd->id(), part});
  if (block == nullptr) return nullptr;
  return std::any_cast<const std::vector<int>&>(*block).data();
}

TEST(ZeroCopy, CachedReadsAliasTheBlockOnBothPlanes) {
  for (const int threads : {1, 4}) {
    SparkConf conf;
    conf.intra_run_threads = threads;
    Engine e(conf);
    auto cached = cache_rdd(parallelize<int>(e.ctx(), iota_vec(400), 8));
    const auto first = viewed_addresses(cached);   // misses: fill the blocks
    const auto second = viewed_addresses(cached);  // hits
    for (std::size_t p = 0; p < first.size(); ++p) {
      const int* block = block_address(e.ctx(), cached, p);
      ASSERT_NE(block, nullptr) << "threads " << threads << " part " << p;
      EXPECT_EQ(first[p], block) << "threads " << threads << " part " << p;
      EXPECT_EQ(second[p], block) << "threads " << threads << " part " << p;
    }
    // An owning read still gets its own copy.
    EXPECT_EQ(collect(cached), iota_vec(400));
  }
}

TEST(ZeroCopy, DatasetMemoHitsHandOutTheStoredBuffer) {
  DatasetMemo memo;
  memo.bind("g");
  memo.bind("g");
  const auto stored =
      memo.get_or_make<int>(1, "g", 4, 0, TaskKind::kShuffleMap, [] {
        return std::vector<int>{1, 2, 3};
      });
  const auto hit =
      memo.get_or_make<int>(1, "g", 4, 0, TaskKind::kShuffleMap, [] {
        ADD_FAILURE() << "a hit regenerated";
        return std::vector<int>{};
      });
  EXPECT_EQ(hit.get(), stored.get());

  // Through GenerateRDD: a second read of an admitted group reads the slot.
  Engine e;
  e.ctx().set_dataset_memo(&memo);
  auto gen = generate_rdd<int>(e.ctx(), "gen", 3, [](std::size_t p, Rng&) {
    return std::vector<int>(10, static_cast<int>(p));
  });
  EXPECT_EQ(viewed_addresses(gen), viewed_addresses(gen));
}

TEST(ZeroCopy, ViewsOutliveDroppedAndEvictedBlocks) {
  Engine e;
  BlockManager& bm = e.ctx().block_manager();
  auto cached = cache_rdd(parallelize<int>(e.ctx(), iota_vec(400), 4));
  int owner = -1;
  const auto hold_views = [&] {
    auto held = std::make_shared<std::vector<PartitionView<int>>>(4);
    e.ctx().scheduler().run_job(
        cached,
        [&cached, &owner, held](std::size_t p, TaskContext& ctx) {
          (*held)[p] = cached->view(p, ctx);
          owner = ctx.executor_id();
        },
        4, "hold");
    return held;
  };
  const auto expect_intact = [](const std::vector<PartitionView<int>>& held) {
    std::vector<int> all;
    for (const auto& view : held) all.insert(all.end(), view->begin(),
                                             view->end());
    EXPECT_EQ(all, iota_vec(400));
  };

  auto held = hold_views();
  ASSERT_EQ(bm.block_count(), 4u);
  ASSERT_TRUE(bm.drop_lru());  // a poisoned block
  EXPECT_EQ(bm.drop_owned_by(owner), 3u);  // its producer crashed
  EXPECT_EQ(bm.block_count(), 0u);
  expect_intact(*held);

  held = hold_views();  // recomputed into fresh blocks
  ASSERT_EQ(bm.block_count(), 4u);
  ASSERT_TRUE(bm.put({999, 0}, block(1), bm.budget()));  // evicts the rest
  EXPECT_EQ(bm.evictions(), 4u);
  EXPECT_FALSE(bm.has({cached->id(), 0}));
  expect_intact(*held);
}

// --- shuffles ------------------------------------------------------------------------

TEST(ShuffleStore, PutBucketsMatchesPerBucketPuts) {
  // put_buckets is the commit replay of one parallel map task's buffered
  // puts; it must leave exactly what one put_bucket call per bucket leaves:
  // cells, sizes, byte totals, owners and the tiering event sequence.
  constexpr std::size_t kMaps = 3;
  constexpr std::size_t kReduces = 5;
  // Reduce partition 2 gets an empty bucket: zero-byte puts skip tiering.
  const auto size_of = [](std::size_t m, std::size_t r) {
    return Bytes::of(r == 2 ? 0.0 : 8.0 * static_cast<double>(m * 10 + r));
  };
  RecordingHooks single_hooks;
  RecordingHooks batched_hooks;
  ShuffleStore single;
  ShuffleStore batched;
  single.set_tiering(&single_hooks);
  batched.set_tiering(&batched_hooks);
  const int s1 = single.register_shuffle(kMaps, kReduces);
  const int s2 = batched.register_shuffle(kMaps, kReduces);
  for (std::size_t m = 0; m < kMaps; ++m) {
    std::vector<ShuffleBucketPut> ops(kReduces);
    for (std::size_t r = 0; r < kReduces; ++r) {
      const std::vector<int> records{static_cast<int>(m),
                                     static_cast<int>(r)};
      const int owner = static_cast<int>(m % 2);
      single.put_bucket(s1, m, r, records, size_of(m, r), owner);
      ops[r].shuffle = s2;
      ops[r].map_part = m;
      ops[r].reduce_part = r;
      ops[r].records = records;
      ops[r].size = size_of(m, r);
      ops[r].owner = owner;
    }
    batched.put_buckets(ops.data(), ops.size());
  }

  EXPECT_FALSE(single_hooks.events.empty());
  EXPECT_EQ(single_hooks.events, batched_hooks.events);
  EXPECT_EQ(single.bytes_held().b(), batched.bytes_held().b());
  EXPECT_EQ(single.bytes_written_total().b(),
            batched.bytes_written_total().b());
  for (std::size_t m = 0; m < kMaps; ++m) {
    for (std::size_t r = 0; r < kReduces; ++r) {
      EXPECT_EQ(single.bucket_size(s1, m, r).b(),
                batched.bucket_size(s2, m, r).b());
      using Records = std::vector<int>;
      EXPECT_EQ(std::any_cast<const Records&>(single.bucket(s1, m, r)),
                std::any_cast<const Records&>(batched.bucket(s2, m, r)));
    }
  }
  // Owners: a crash of executor 1 takes down the same map outputs.
  EXPECT_EQ(single.invalidate_owned_by(1), batched.invalidate_owned_by(1));
  EXPECT_EQ(single.lost_parts(s1), batched.lost_parts(s2));
  EXPECT_EQ(single.lost_parts(s1), std::vector<std::size_t>{1});
}


TEST(Shuffle, ReduceByKeyMatchesReference) {
  Engine e;
  std::vector<std::pair<std::string, int>> data;
  std::map<std::string, int> reference;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform_u64(37));
    const int value = static_cast<int>(rng.uniform_u64(100));
    data.emplace_back(key, value);
    reference[key] += value;
  }
  auto rdd = reduce_by_key(
      parallelize<std::pair<std::string, int>>(e.ctx(), data, 6),
      [](int a, int b) { return a + b; }, 8);
  std::map<std::string, int> got;
  for (const auto& [k, v] : collect(rdd)) got[k] = v;
  EXPECT_EQ(got, reference);
}

TEST(Shuffle, GroupByKeyCollectsAllValues) {
  Engine e;
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 100; ++i) data.emplace_back(i % 5, i);
  auto grouped = group_by_key(
      parallelize<std::pair<int, int>>(e.ctx(), data, 4), 3);
  std::size_t total = 0;
  for (const auto& [k, vs] : collect(grouped)) {
    EXPECT_EQ(vs.size(), 20u);
    for (const int v : vs) EXPECT_EQ(v % 5, k);
    total += vs.size();
  }
  EXPECT_EQ(total, 100u);
}

TEST(Shuffle, SortByKeyGloballyOrders) {
  Engine e;
  Rng rng(11);
  std::vector<std::pair<std::uint64_t, int>> data;
  for (int i = 0; i < 2000; ++i)
    data.emplace_back(rng.next_u64() % 10000, i);
  auto sorted = sort_by_key(
      parallelize<std::pair<std::uint64_t, int>>(e.ctx(), data, 8), 6);
  const auto out = collect(sorted);
  ASSERT_EQ(out.size(), data.size());
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LE(out[i - 1].first, out[i].first);
}

TEST(Shuffle, RepartitionPreservesMultiset) {
  Engine e;
  const auto data = iota_vec(500);
  auto rdd = repartition(parallelize<int>(e.ctx(), data, 3), 11);
  EXPECT_EQ(rdd->num_partitions(), 11u);
  auto out = collect(rdd);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, data);
}

TEST(Shuffle, JoinMatchesReference) {
  Engine e;
  std::vector<std::pair<int, std::string>> left;
  std::vector<std::pair<int, double>> right;
  for (int i = 0; i < 30; ++i) left.emplace_back(i % 10, "L" + std::to_string(i));
  for (int i = 0; i < 20; ++i) right.emplace_back(i % 15, i * 1.5);
  auto joined = join(parallelize<std::pair<int, std::string>>(e.ctx(), left, 3),
                     parallelize<std::pair<int, double>>(e.ctx(), right, 2), 4);
  // Reference join size: keys 0..9 have 3 left x 2 right (keys<5: right has
  // i%15 -> keys 0..14 appear for i in 0..19: keys 0..4 twice, 5..14 once).
  std::size_t expected = 0;
  for (int k = 0; k < 10; ++k) {
    const std::size_t l = 3;
    const std::size_t r = k < 5 ? 2 : 1;
    expected += l * r;
  }
  EXPECT_EQ(collect(joined).size(), expected);
}

TEST(Shuffle, SortByKeyKeepsMapPartitionThenBucketOrderForEqualKeys) {
  // Each key occurs in every map partition. Equal keys come out map
  // partition by map partition, each in its bucket's order; for
  // parallelize's contiguous slices that is a stable sort of the input.
  Engine e;
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 60; ++i) data.emplace_back((i * 7) % 5, i);
  auto sorted =
      sort_by_key(parallelize<std::pair<int, int>>(e.ctx(), data, 4), 3);
  std::vector<std::pair<int, int>> expected = data;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(collect(sorted), expected);
}

TEST(Shuffle, JoinWithDuplicateKeysOnBothSidesKeepsItsOrder) {
  // Pins the exact output order (partition 0 holds keys 0 and 2, partition
  // 1 key 1), including the order among equal keys.
  Engine e;
  std::vector<std::pair<int, std::string>> left;
  std::vector<std::pair<int, int>> right;
  for (int i = 0; i < 14; ++i) left.emplace_back(i % 4, "L" + std::to_string(i));
  for (int i = 0; i < 10; ++i) right.emplace_back(i % 3, i);
  auto joined = join(parallelize<std::pair<int, std::string>>(e.ctx(), left, 3),
                     parallelize<std::pair<int, int>>(e.ctx(), right, 2), 2);
  std::string got;
  for (const auto& [k, vw] : collect(joined))
    got += std::to_string(k) + ":" + vw.first + "/" +
           std::to_string(vw.second) + " ";
  EXPECT_EQ(got,
            "0:L8/0 0:L0/9 0:L4/9 0:L8/9 0:L12/9 0:L0/6 0:L4/6 0:L8/6 0:L12/6 "
            "0:L0/3 0:L4/3 0:L8/3 0:L12/3 0:L0/0 0:L4/0 0:L12/0 "
            "2:L10/5 2:L6/5 2:L2/5 2:L2/2 2:L6/2 2:L10/8 2:L6/8 2:L2/8 2:L10/2 "
            "1:L13/1 1:L9/1 1:L5/1 1:L1/1 1:L13/4 1:L9/4 1:L5/4 1:L1/4 "
            "1:L13/7 1:L9/7 1:L5/7 1:L1/7 ");
}

TEST(Shuffle, MapSideCombineShrinksShuffleBytes) {
  Engine e;
  // 1000 records, only 3 distinct keys: combined shuffle must move ~3 keys
  // per map partition, far less than the raw data.
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 1000; ++i) data.emplace_back(i % 3, 1);
  auto rdd = reduce_by_key(
      parallelize<std::pair<int, int>>(e.ctx(), data, 4),
      [](int a, int b) { return a + b; }, 4);
  collect(rdd);
  // <= maps(4) x keys(3) records held in the store.
  EXPECT_LT(e.ctx().shuffle_store().bytes_written_total().b(),
            4 * 3 * 16.0 + 1.0);
}

TEST(Shuffle, MapOutputReusedAcrossJobs) {
  Engine e;
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 100; ++i) data.emplace_back(i % 7, i);
  auto rdd = reduce_by_key(parallelize<std::pair<int, int>>(e.ctx(), data, 4),
                           [](int a, int b) { return a + b; }, 4);
  JobMetrics first, second;
  collect(rdd, &first);
  collect(rdd, &second);
  // Second job skips the map stage (Spark's shuffle output reuse).
  EXPECT_EQ(first.num_stages, 2u);
  EXPECT_EQ(second.num_stages, 1u);
}

TEST(Shuffle, MapValuesKeepsKeys) {
  Engine e;
  std::vector<std::pair<int, int>> data = {{1, 10}, {2, 20}};
  auto rdd = parallelize<std::pair<int, int>>(e.ctx(), data, 1);
  const auto doubled = collect(map_values(rdd, [](const int& v) {
    return v * 2;
  }));
  EXPECT_EQ(doubled[0].second, 20);
}

// --- combining shuffle: fold order and probing -----------------------------------------

/// Key whose TsxHash differs only above bit 40.
struct HighBitsKey {
  std::uint64_t v = 0;
  friend bool operator==(HighBitsKey a, HighBitsKey b) { return a.v == b.v; }
  friend bool operator<(HighBitsKey a, HighBitsKey b) { return a.v < b.v; }
};
double est_bytes(HighBitsKey) { return 8.0; }

/// Key whose TsxHash is the same for every value.
struct ConstHashKey {
  std::uint64_t v = 0;
  friend bool operator==(ConstHashKey a, ConstHashKey b) {
    return a.v == b.v;
  }
  friend bool operator<(ConstHashKey a, ConstHashKey b) { return a.v < b.v; }
};
double est_bytes(ConstHashKey) { return 8.0; }

}  // namespace

template <>
struct TsxHash<HighBitsKey> {
  std::size_t operator()(HighBitsKey k) const {
    return static_cast<std::size_t>(k.v << 40);
  }
};

template <>
struct TsxHash<ConstHashKey> {
  std::size_t operator()(ConstHashKey) const { return 7; }
};

namespace {

/// reduce_by_key over order-sensitive doubles and group_by_key must equal a
/// driver-side fold of each map partition (parallelize's contiguous slices)
/// in record order, followed by a merge of the partials in map order.
template <typename K>
void expect_fold_order_matches_reference(K (*make_key)(std::uint64_t)) {
  Engine e;
  Rng rng(19);
  const double kValues[] = {1e16, 1.0, -1e16, 0.25, 3.0};
  std::vector<std::pair<K, double>> data;
  for (int i = 0; i < 600; ++i)
    data.emplace_back(make_key(rng.uniform_u64(40)),
                      kValues[rng.uniform_u64(5)]);
  constexpr std::size_t kMaps = 5;

  std::map<K, double> sums;
  std::map<K, double> sequential;  // one left-to-right fold, for contrast
  std::map<K, std::vector<double>> groups;
  for (std::size_t m = 0; m < kMaps; ++m) {
    std::map<K, double> partial;
    for (std::size_t i = m * data.size() / kMaps;
         i < (m + 1) * data.size() / kMaps; ++i) {
      const auto& [k, v] = data[i];
      const auto [it, fresh] = partial.emplace(k, v);
      if (!fresh) it->second = it->second + v;
      const auto [seq, first] = sequential.emplace(k, v);
      if (!first) seq->second = seq->second + v;
      groups[k].push_back(v);
    }
    for (const auto& [k, v] : partial) {
      const auto [it, fresh] = sums.emplace(k, v);
      if (!fresh) it->second = it->second + v;
    }
  }
  // The values are order-sensitive: regrouping the fold changes some sum.
  EXPECT_NE(sums, sequential);

  const auto summed = collect(
      reduce_by_key(parallelize(e.ctx(), data, kMaps),
                    [](double a, double b) { return a + b; }, 3));
  ASSERT_EQ(summed.size(), sums.size());
  for (const auto& [k, v] : summed) {
    ASSERT_EQ(sums.count(k), 1u);
    EXPECT_EQ(v, sums.at(k));
  }

  const auto grouped =
      collect(group_by_key(parallelize(e.ctx(), data, kMaps), 3));
  ASSERT_EQ(grouped.size(), groups.size());
  for (const auto& [k, vs] : grouped) {
    ASSERT_EQ(groups.count(k), 1u);
    EXPECT_EQ(vs, groups.at(k));
  }
}

TEST(CombineShuffle, FoldOrderMatchesReference) {
  expect_fold_order_matches_reference<HighBitsKey>(
      [](std::uint64_t i) { return HighBitsKey{i}; });
  expect_fold_order_matches_reference<ConstHashKey>(
      [](std::uint64_t i) { return ConstHashKey{i}; });
  // std::hash<uint32_t> is the identity, so these hashes also differ only
  // in their high bits.
  expect_fold_order_matches_reference<std::uint32_t>([](std::uint64_t i) {
    return static_cast<std::uint32_t>(i << 24);
  });
}

// --- scheduler & simulated time -------------------------------------------------------

TEST(Scheduler, JobAdvancesVirtualTime) {
  Engine e;
  const Duration before = e.ctx().now();
  collect(parallelize<int>(e.ctx(), iota_vec(10), 2));
  const Duration after = e.ctx().now();
  EXPECT_GT(after, before + kExecutorLaunch);
}

TEST(Scheduler, StageCountMatchesLineage) {
  Engine e;
  std::vector<std::pair<int, int>> data = {{1, 1}, {2, 2}};
  auto a = reduce_by_key(parallelize<std::pair<int, int>>(e.ctx(), data, 2),
                         [](int x, int y) { return x + y; }, 2);
  auto b = reduce_by_key(map_values(a, [](const int& v) { return v + 1; }),
                         [](int x, int y) { return x + y; }, 2);
  JobMetrics jm;
  collect(b, &jm);
  EXPECT_EQ(jm.num_stages, 3u);  // two map stages + result
  EXPECT_GT(jm.num_tasks, 0u);
  ASSERT_EQ(jm.stages.size(), 3u);
  EXPECT_LE(jm.stages[0].end, jm.stages[1].start);  // barrier ordering
}

TEST(Scheduler, MoreWorkTakesLongerOnSameTier) {
  Engine small_e;
  Engine big_e;
  collect(map_rdd(parallelize<int>(small_e.ctx(), iota_vec(100), 4),
                  [](const int& x) { return x; }));
  collect(map_rdd(parallelize<int>(big_e.ctx(), iota_vec(100000), 4),
                  [](const int& x) { return x; }));
  EXPECT_GT(big_e.ctx().now(), small_e.ctx().now());
}

TEST(Scheduler, NvmTierSlowerForSameJob) {
  SparkConf nvm_conf;
  nvm_conf.mem_bind = mem::TierId::kTier2;
  Engine dram_e;
  Engine nvm_e(nvm_conf);
  auto job = [](Engine& e) {
    std::vector<std::pair<int, int>> data;
    for (int i = 0; i < 20000; ++i) data.emplace_back(i % 100, i);
    collect(reduce_by_key(
        parallelize<std::pair<int, int>>(e.ctx(), data, 8),
        [](int a, int b) { return a + b; }, 8));
  };
  job(dram_e);
  job(nvm_e);
  EXPECT_GT(nvm_e.ctx().now(), dram_e.ctx().now());
}

TEST(Scheduler, CostMultiplierStretchesTime) {
  Engine e1;
  Engine e2;
  e2.ctx().set_cost_multiplier(50.0);
  auto job = [](Engine& e) {
    collect(map_rdd(parallelize<int>(e.ctx(), iota_vec(5000), 4),
                    [](const int& x) { return x; }));
  };
  job(e1);
  job(e2);
  EXPECT_GT(e2.ctx().now().sec(), e1.ctx().now().sec());
}

TEST(Context, ExecutorPlacementHonorsBinding) {
  SparkConf conf;
  conf.executor_instances = 4;
  conf.cores_per_executor = 20;
  conf.cpu_node_bind = 0;
  Engine e(conf);
  ASSERT_EQ(e.ctx().executors().size(), 4u);
  for (const auto& ex : e.ctx().executors())
    EXPECT_EQ(ex->spec().socket, 0);
}

TEST(Context, BoundTierResolvesNode) {
  SparkConf conf;
  conf.mem_bind = mem::TierId::kTier3;
  Engine e(conf);
  EXPECT_EQ(e.ctx().bound_tier().tech->kind, mem::TechKind::kNvm);
  EXPECT_TRUE(e.ctx().bound_tier().remote);
}

/// Property: the multiset of results of a keyed aggregation is invariant to
/// the number of reduce partitions.
class ShufflePartitionInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ShufflePartitionInvariance, SameResultAnyPartitionCount) {
  Engine e;
  std::vector<std::pair<int, int>> data;
  Rng rng(GetParam() * 17 + 1);
  for (int i = 0; i < 300; ++i)
    data.emplace_back(static_cast<int>(rng.uniform_u64(23)), 1);
  auto rdd = reduce_by_key(
      parallelize<std::pair<int, int>>(e.ctx(), data, 5),
      [](int a, int b) { return a + b; },
      static_cast<std::size_t>(GetParam()));
  int total = 0;
  for (const auto& [k, v] : collect(rdd)) total += v;
  EXPECT_EQ(total, 300);
}

INSTANTIATE_TEST_SUITE_P(Partitions, ShufflePartitionInvariance,
                         ::testing::Values(1, 2, 3, 7, 16, 40, 64));

}  // namespace
}  // namespace tsx::spark
