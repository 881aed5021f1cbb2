// Tests for the columnar execution subsystem: arena reuse invariants,
// vectorized kernel semantics (nulls, empty batches, dictionary overflow,
// selection-vector chaining), runtime store/region accounting, query-layer
// planning and tracing, runner config plumbing, and the row-vs-columnar
// result-equality gate for the ported workloads at 1/4/8 task threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "columnar/batch.hpp"
#include "columnar/kernels.hpp"
#include "columnar/query.hpp"
#include "columnar/runtime.hpp"
#include "core/arena.hpp"
#include "dfs/dfs.hpp"
#include "mem/machine.hpp"
#include "runner/result_cache.hpp"
#include "runner/serialize.hpp"
#include "sim/simulator.hpp"
#include "spark/scheduler.hpp"
#include "workloads/runner.hpp"

namespace tsx::columnar {
namespace {

using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

// --- arena ---------------------------------------------------------------

TEST(Arena, AlignedAllocationsAndDistinctZeroByte) {
  core::Arena arena;
  for (std::size_t align : {std::size_t{8}, std::size_t{64}, std::size_t{256}}) {
    void* p = arena.allocate(17, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
  }
  // Zero-byte requests still return distinct non-null identities.
  void* a = arena.allocate(0);
  void* b = arena.allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  EXPECT_NE(a, b);
}

TEST(Arena, ResetRecyclesChunksWithoutNewAllocation) {
  core::Arena arena(4 * 1024);
  // Warm-up cycle establishes the chunk set.
  for (int i = 0; i < 32; ++i) arena.alloc_array<double>(256);
  const std::size_t warm_capacity = arena.capacity_bytes();
  const std::size_t warm_chunks = arena.chunk_count();
  EXPECT_GT(warm_capacity, 0u);

  // Steady state: identical batches must not grow the chunk set.
  for (int cycle = 0; cycle < 10; ++cycle) {
    arena.reset();
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    for (int i = 0; i < 32; ++i) arena.alloc_array<double>(256);
    EXPECT_EQ(arena.capacity_bytes(), warm_capacity);
    EXPECT_EQ(arena.chunk_count(), warm_chunks);
  }
  EXPECT_EQ(arena.resets(), 10u);
}

TEST(Arena, HighWaterTracksPeakCycle) {
  core::Arena arena;
  arena.alloc_array<std::uint8_t>(1000);
  arena.reset();
  arena.alloc_array<std::uint8_t>(5000);
  arena.reset();
  arena.alloc_array<std::uint8_t>(100);
  EXPECT_GE(arena.high_water_bytes(), 5000u);
  EXPECT_LT(arena.high_water_bytes(), 10000u);
}

TEST(Arena, OversizedRequestStillServed) {
  core::Arena arena(1024);
  auto* big = arena.alloc_array<std::uint8_t>(core::Arena::kMaxChunkBytes + 7);
  ASSERT_NE(big, nullptr);
  big[0] = 1;
  big[core::Arena::kMaxChunkBytes + 6] = 2;
  EXPECT_GE(arena.capacity_bytes(), core::Arena::kMaxChunkBytes + 7);
  arena.release();
  EXPECT_EQ(arena.capacity_bytes(), 0u);
  EXPECT_EQ(arena.chunk_count(), 0u);
}

// --- batch / builders ----------------------------------------------------

TEST(Batch, StrBuilderSealsOffsetsAndNulls) {
  StrBuilder sb;
  sb.append("alpha");
  sb.append_null();
  sb.append("");
  sb.append("beta");
  Column col = sb.seal();
  ASSERT_EQ(col.type, ColType::kStr);
  ASSERT_EQ(col.rows(), 4u);
  EXPECT_EQ(col.str(0), "alpha");
  EXPECT_EQ(col.str(2), "");
  EXPECT_EQ(col.str(3), "beta");
  EXPECT_TRUE(col.is_valid(0));
  EXPECT_FALSE(col.is_valid(1));
  EXPECT_TRUE(col.is_valid(2));

  // The builder resets: the next column starts clean and all-valid.
  sb.append("gamma");
  Column next = sb.seal();
  ASSERT_EQ(next.rows(), 1u);
  EXPECT_TRUE(next.validity.empty());
  EXPECT_EQ(next.str(0), "gamma");
}

TEST(Batch, DictBuilderInternsAndReportsOverflow) {
  DictBuilder db(2);
  EXPECT_TRUE(db.append("red"));
  EXPECT_TRUE(db.append("blue"));
  EXPECT_TRUE(db.append("red"));  // existing entry: no new slot needed
  EXPECT_FALSE(db.append("green"));  // fresh value past capacity
  EXPECT_EQ(db.rows(), 3u);
  EXPECT_EQ(db.distinct(), 2u);
  Column col = db.seal();
  ASSERT_EQ(col.type, ColType::kDict);
  ASSERT_EQ(col.rows(), 3u);
  EXPECT_EQ(col.dict_size(), 2u);
  EXPECT_EQ(col.str(0), "red");
  EXPECT_EQ(col.str(1), "blue");
  EXPECT_EQ(col.str(2), "red");
}

TEST(Batch, ValidityBitmapAndByteSize) {
  Column col = Column::make_f64({1.0, 2.0, 3.0});
  EXPECT_TRUE(col.validity.empty());  // all-valid is free
  const double plain = col.byte_size();
  col.set_null(1);
  EXPECT_TRUE(col.is_valid(0));
  EXPECT_FALSE(col.is_valid(1));
  EXPECT_TRUE(col.is_valid(2));
  EXPECT_GT(col.byte_size(), plain);  // bitmap now counted
}

// --- kernels -------------------------------------------------------------

TEST(Kernels, FilterEmitsAscendingAndSkipsNulls) {
  core::Arena arena;
  Column col = Column::make_i64({5, 1, 7, 3, 9});
  col.set_null(2);  // the 7 must never pass, whatever the predicate
  const SelVec ge3 = filter_i64(arena, col, CmpOp::kGe, 3);
  ASSERT_EQ(ge3.size, 3u);
  EXPECT_EQ(ge3.idx[0], 0u);
  EXPECT_EQ(ge3.idx[1], 3u);
  EXPECT_EQ(ge3.idx[2], 4u);

  const SelVec none = filter_i64(arena, col, CmpOp::kEq, 7);
  EXPECT_EQ(none.size, 0u);
}

TEST(Kernels, FilterChainingIntersects) {
  core::Arena arena;
  Column a = Column::make_i64({1, 2, 3, 4, 5, 6});
  Column b = Column::make_f64({9.0, 1.0, 9.0, 1.0, 9.0, 1.0});
  const SelVec ge3 = filter_i64(arena, a, CmpOp::kGe, 3);  // rows 2..5
  const SelVec hot = filter_f64(arena, b, CmpOp::kGt, 5.0, &ge3);
  ASSERT_EQ(hot.size, 2u);
  EXPECT_EQ(hot.idx[0], 2u);
  EXPECT_EQ(hot.idx[1], 4u);
}

TEST(Kernels, FilterEmptyColumn) {
  core::Arena arena;
  const Column col = Column::make_i64({});
  const SelVec sel = filter_i64(arena, col, CmpOp::kNe, 0);
  EXPECT_EQ(sel.size, 0u);
}

TEST(Kernels, GatherKeepsDictionary) {
  core::Arena arena;
  Column col;
  col.type = ColType::kDict;
  col.codes = {0, 1, 0};
  col.bytes = "ab";
  col.dict_offsets = {0, 1, 2};
  const std::uint32_t rows[] = {2, 0};
  Column out = gather(col, SelVec{rows, 2});
  ASSERT_EQ(out.type, ColType::kDict);
  ASSERT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.str(0), "a");
  EXPECT_EQ(out.str(1), "a");
  EXPECT_EQ(out.dict_size(), 2u);
}

TEST(Kernels, ProjectScalePropagatesNulls) {
  Column col = Column::make_f64({1.0, 2.0, 3.0});
  col.set_null(1);
  Column out = project_scale_f64(col, 2.0, 0.5);
  ASSERT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.f64[0], 2.5);
  EXPECT_EQ(out.f64[2], 6.5);
  EXPECT_FALSE(out.is_valid(1));
}

TEST(Kernels, AggSumAccumulatesInRecordOrder) {
  core::Arena arena;
  // (1e16 + 1.0) + -1e16 == 0.0 under record order; any other association
  // gives 1.0 — so the expected value pins the fold order exactly.
  const std::int64_t keys[] = {7, 7, 7, 3};
  const double vals[] = {1e16, 1.0, -1e16, 2.5};
  AggResult r = agg_sum(arena, keys, vals, 4);
  ASSERT_EQ(r.keys.size(), 2u);
  EXPECT_EQ(r.keys[0], 3);  // sorted by key
  EXPECT_EQ(r.keys[1], 7);
  EXPECT_EQ(r.sums[0], 2.5);
  EXPECT_EQ(r.sums[1], 0.0);
}

TEST(Kernels, AggSumSkipsInvalidRowsAndHandlesEmpty) {
  core::Arena arena;
  const std::int64_t keys[] = {1, 1, 2};
  const double vals[] = {10.0, 100.0, 7.0};
  // Row 1's key is invalid, row 2's value is invalid.
  const std::uint64_t key_ok[] = {0b101};
  const std::uint64_t val_ok[] = {0b011};
  AggResult r = agg_sum(arena, keys, vals, 3, key_ok, val_ok);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.keys[0], 1);
  EXPECT_EQ(r.sums[0], 10.0);

  AggResult empty = agg_sum(arena, keys, vals, 0);
  EXPECT_TRUE(empty.keys.empty());
}

TEST(Kernels, AggSumUnsortedEmissionMatchesSortedGroups) {
  core::Arena arena;
  std::vector<std::int64_t> keys;
  std::vector<double> vals;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(i % 37);
    vals.push_back(0.25 * i);
  }
  AggResult sorted = agg_sum(arena, keys.data(), vals.data(), keys.size());
  AggResult fast = agg_sum(arena, keys.data(), vals.data(), keys.size(),
                           nullptr, nullptr, /*emit_sorted=*/false);
  ASSERT_EQ(sorted.keys.size(), 37u);
  ASSERT_EQ(fast.keys.size(), 37u);
  std::map<std::int64_t, double> by_key;
  for (std::size_t i = 0; i < fast.keys.size(); ++i)
    by_key[fast.keys[i]] = fast.sums[i];
  for (std::size_t i = 0; i < sorted.keys.size(); ++i) {
    ASSERT_TRUE(by_key.count(sorted.keys[i]));
    // Bit-identical sums: both emissions read the same accumulator slots.
    EXPECT_EQ(by_key[sorted.keys[i]], sorted.sums[i]);
  }
}

TEST(Kernels, HashJoinMatchesInBuildOrder) {
  core::Arena arena;
  const std::int64_t build[] = {5, 7, 5};
  const std::int64_t probe[] = {5, 9, 7};
  JoinResult r = hash_join(arena, build, 3, probe, 3);
  ASSERT_EQ(r.size, 3u);
  // Probe row 0 (key 5) matches build rows 0 then 2; probe row 2 matches 1.
  EXPECT_EQ(r.probe_rows[0], 0u);
  EXPECT_EQ(r.build_rows[0], 0u);
  EXPECT_EQ(r.probe_rows[1], 0u);
  EXPECT_EQ(r.build_rows[1], 2u);
  EXPECT_EQ(r.probe_rows[2], 2u);
  EXPECT_EQ(r.build_rows[2], 1u);

  JoinResult none = hash_join(arena, build, 0, probe, 3);
  EXPECT_EQ(none.size, 0u);
}

TEST(Kernels, SortIndicesByBytesIsStable) {
  core::Arena arena;
  StrBuilder sb;
  sb.append("abcZ");
  sb.append("aaa");
  sb.append("abcA");  // same 3-byte key as row 0: must keep arrival order
  sb.append("ab");    // shorter than key_width: compares by full length
  Column col = sb.seal();
  const std::uint32_t* idx = sort_indices_by_bytes(
      arena, col.bytes.data(), col.codes.data(), col.rows(), 3);
  EXPECT_EQ(idx[0], 1u);  // "aaa"
  EXPECT_EQ(idx[1], 3u);  // "ab" (prefix of "abc", shorter sorts first)
  EXPECT_EQ(idx[2], 0u);  // "abcZ" arrived before "abcA"
  EXPECT_EQ(idx[3], 2u);
}

TEST(Kernels, ScatterPreservesRowOrderWithinPartition) {
  core::Arena arena;
  const std::uint32_t part_ids[] = {1, 0, 1, 0, 2};
  Scatter s = scatter_by_partition(arena, part_ids, 5, 3);
  ASSERT_EQ(s.parts, 3u);
  EXPECT_EQ(s.offsets[0], 0u);
  EXPECT_EQ(s.offsets[1], 2u);
  EXPECT_EQ(s.offsets[2], 4u);
  EXPECT_EQ(s.offsets[3], 5u);
  EXPECT_EQ(s.rows[0], 1u);  // partition 0 in arrival order
  EXPECT_EQ(s.rows[1], 3u);
  EXPECT_EQ(s.rows[2], 0u);  // partition 1 in arrival order
  EXPECT_EQ(s.rows[3], 2u);
  EXPECT_EQ(s.rows[4], 4u);
}

// --- runtime + query layer -----------------------------------------------

/// Fresh engine + columnar runtime per test.
struct ColEngine {
  sim::Simulator simulator;
  mem::MachineModel machine{simulator};
  dfs::Dfs dfs;
  spark::SparkConf conf;
  std::unique_ptr<spark::SparkContext> sc;
  std::unique_ptr<Runtime> rt;

  explicit ColEngine(ColumnarConfig cc = {}) {
    sc = std::make_unique<spark::SparkContext>(machine, dfs, conf, 42);
    cc.enabled = true;
    rt = std::make_unique<Runtime>(*sc, cc);
  }
};

Chunk two_col_chunk(std::vector<std::int64_t> keys, std::vector<double> vals) {
  Chunk c;
  c.rows = keys.size();
  c.cols.push_back(Column::make_i64(std::move(keys)));
  c.cols.push_back(Column::make_f64(std::move(vals)));
  return c;
}

TEST(Runtime, StoresRegisterRegionsAndServeReads) {
  ColEngine e;
  const int store = e.rt->create_store("test.store");
  EXPECT_EQ(e.rt->store_name(store), "test.store");
  Chunk c0 = two_col_chunk({1, 2}, {0.5, 1.5});
  const double c0_bytes = c0.byte_size().b();
  std::vector<Chunk> chunks;
  chunks.push_back(std::move(c0));
  e.rt->store_put(store, 0, std::move(chunks));

  const std::vector<Chunk>* found = e.rt->store_find(store, 0);
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0].rows, 2u);
  EXPECT_EQ(e.rt->store_find(store, 1), nullptr);

  EXPECT_EQ(e.rt->driver_stats().regions, 1u);
  EXPECT_EQ(e.rt->driver_stats().region_bytes.b(), c0_bytes);
  e.rt->drop_store(store);
}

TEST(Runtime, ArenaLeaseStatsFoldAtFinish) {
  ColEngine e;
  {
    Runtime::ArenaLease lease = e.rt->lease_arena();
    lease->alloc_array<double>(1024);
  }
  {
    Runtime::ArenaLease lease = e.rt->lease_arena();
    lease->alloc_array<double>(16);
  }
  e.rt->finish();
  EXPECT_EQ(e.rt->stats().arena_leases, 2u);
  EXPECT_GE(e.rt->stats().arena_high_water.b(), 1024.0 * 8);
}

ScanSpec small_scan(std::size_t partitions) {
  ScanSpec spec;
  spec.label = "nums";
  spec.partitions = partitions;
  spec.charge_input_io = false;
  spec.generate = [](std::size_t part, Rng&) -> std::vector<Chunk> {
    std::vector<std::int64_t> keys;
    std::vector<double> vals;
    for (int i = 0; i < 100; ++i) {
      keys.push_back(i % 5);
      vals.push_back(static_cast<double>(part) * 1000.0 + i);
    }
    std::vector<Chunk> out;
    out.push_back(two_col_chunk(std::move(keys), std::move(vals)));
    return out;
  };
  return spec;
}

TEST(Query, ExplainRendersOneLinePerStage) {
  auto q = Query::scan(small_scan(2))
               .filter_i64(0, CmpOp::kGe, 1)
               .aggregate_sum(0, 1, 4);
  const std::string plan = explain(q);
  EXPECT_NE(plan.find("scan"), std::string::npos);
  EXPECT_NE(plan.find("filter"), std::string::npos);
  EXPECT_NE(plan.find("exchange[sum"), std::string::npos);
  // Two stages: the fused scan+filter map stage and the exchange.
  EXPECT_EQ(std::count(plan.begin(), plan.end(), '\n'),
            static_cast<std::ptrdiff_t>(2));
}

TEST(Query, ScanFilterProjectAggregateEndToEnd) {
  ColEngine e;
  auto q = Query::scan(small_scan(2))
               .filter_i64(0, CmpOp::kGe, 1)     // drop key 0
               .project_scale(1, 2.0, 1.0)       // val * 2 + 1
               .aggregate_sum(0, 1, 4);
  QueryResult r = execute(*e.rt, q, "e2e");
  ASSERT_EQ(r.partitions.size(), 4u);
  EXPECT_FALSE(r.plan.empty());
  ASSERT_EQ(r.jobs.size(), 1u);

  // Reference: same record order (partition 0 then 1, row order within).
  std::map<std::int64_t, double> expect;
  for (std::size_t part = 0; part < 2; ++part)
    for (int i = 0; i < 100; ++i) {
      const std::int64_t key = i % 5;
      if (key < 1) continue;
      expect[key] += (static_cast<double>(part) * 1000.0 + i) * 2.0 + 1.0;
    }

  std::map<std::int64_t, double> got;
  for (std::size_t p = 0; p < r.partitions.size(); ++p) {
    for (const Chunk& c : r.partitions[p]) {
      ASSERT_EQ(c.cols.size(), 2u);
      for (std::size_t row = 0; row < c.rows; ++row) {
        const std::int64_t key = c.cols[0].i64[row];
        // Keys land on their hash partition.
        EXPECT_EQ(static_cast<std::uint64_t>(key) % 4, p);
        got[key] = c.cols[1].f64[row];
      }
    }
  }
  EXPECT_EQ(got, expect);

  e.rt->finish();
  const ColumnarStats& stats = e.rt->stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_GE(stats.stages_planned, 2u);
  EXPECT_GT(stats.kernel(KernelKind::kScan).invocations, 0u);
  EXPECT_GT(stats.kernel(KernelKind::kFilter).invocations, 0u);
  EXPECT_GT(stats.kernel(KernelKind::kProject).invocations, 0u);
  EXPECT_GT(stats.kernel(KernelKind::kAggregate).invocations, 0u);
  EXPECT_GT(stats.kernel(KernelKind::kAggregate).bytes_written.b(), 0.0);
}

TEST(Query, JoinStoreProbesSamePartition) {
  ColEngine e;
  const int store = e.rt->create_store("join.build");
  std::vector<Chunk> build;
  build.push_back(two_col_chunk({2, 4}, {20.0, 40.0}));
  e.rt->store_put(store, 0, std::move(build));

  ScanSpec spec;
  spec.label = "probe";
  spec.partitions = 1;
  spec.charge_input_io = false;
  spec.generate = [](std::size_t, Rng&) -> std::vector<Chunk> {
    std::vector<Chunk> out;
    out.push_back(two_col_chunk({4, 3, 2, 4}, {1.0, 2.0, 3.0, 4.0}));
    return out;
  };
  auto q = Query::scan(spec).join_store(store, 0, 0, "probeXbuild");
  QueryResult r = execute(*e.rt, q, "join");
  ASSERT_EQ(r.partitions.size(), 1u);
  ASSERT_EQ(r.partitions[0].size(), 1u);
  const Chunk& out = r.partitions[0][0];
  // Probe columns first, then build columns; probe order preserved.
  ASSERT_EQ(out.cols.size(), 4u);
  ASSERT_EQ(out.rows, 3u);
  EXPECT_EQ(out.cols[0].i64, (std::vector<std::int64_t>{4, 2, 4}));
  EXPECT_EQ(out.cols[1].f64, (std::vector<double>{1.0, 3.0, 4.0}));
  EXPECT_EQ(out.cols[3].f64, (std::vector<double>{40.0, 20.0, 40.0}));
  // The build side was read through the store: cache-read kernel billed.
  EXPECT_GT(e.rt->driver_stats().kernel(KernelKind::kCacheRead).invocations,
            0u);
}

TEST(Query, EmitsPlanAndExecTraces) {
  ColEngine e;
  auto q = Query::scan(small_scan(2)).aggregate_sum(0, 1, 2);
  const QueryResult r = execute(*e.rt, q, "traced");
  // One plan line per stage: the scan's map stage and the aggregate's
  // reduce stage, matching what explain renders and what the runtime
  // counted as planned.
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < r.plan.size();) {
    const std::size_t eol = r.plan.find('\n', at);
    ASSERT_NE(eol, std::string::npos);  // every line is terminated
    lines.push_back(r.plan.substr(at, eol - at));
    at = eol + 1;
  }
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(r.plan, explain(q));
  EXPECT_EQ(lines.size(), e.rt->driver_stats().stages_planned);
  // The exec line's inputs: the jobs the plan ran, each with tasks.
  ASSERT_GE(r.jobs.size(), 1u);
  for (const spark::JobMetrics& jm : r.jobs) EXPECT_GT(jm.num_tasks, 0u);
}

// --- runner integration --------------------------------------------------

TEST(ColumnarRunner, ConfigHashCoversColumnarKnobs) {
  RunConfig base;
  const std::string key = workloads::canonical_key(base);
  EXPECT_NE(key.find("columnar_enabled=0"), std::string::npos);
  EXPECT_NE(key.find("columnar_batch_rows="), std::string::npos);
  EXPECT_NE(key.find("columnar_arena_chunk_kib="), std::string::npos);
  EXPECT_NE(key.find("columnar_dict_capacity="), std::string::npos);

  RunConfig enabled = base;
  enabled.columnar.enabled = true;
  RunConfig batched = base;
  batched.columnar.batch_rows = 1024;
  EXPECT_NE(workloads::stable_hash(base), workloads::stable_hash(enabled));
  EXPECT_NE(workloads::stable_hash(base), workloads::stable_hash(batched));
}

TEST(ColumnarRunner, ValidatesKnobRangesAndFaultConflict) {
  RunConfig bad;
  bad.columnar.enabled = true;
  bad.columnar.batch_rows = 0;
  EXPECT_FALSE(bad.validate().empty());

  RunConfig conflict;
  conflict.columnar.enabled = true;
  conflict.fault.enabled = true;
  bool flagged = false;
  for (const auto& d : conflict.validate())
    if (d.field == "columnar.enabled") flagged = true;
  EXPECT_TRUE(flagged);
}

TEST(ColumnarRunner, JsonRoundTripPreservesColumnarStats) {
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kTiny;
  cfg.columnar.enabled = true;
  const RunResult result = workloads::run_workload(cfg);
  ASSERT_TRUE(result.valid);
  EXPECT_GT(result.columnar.queries, 0u);
  EXPECT_GT(result.columnar.batches, 0u);

  const std::string json = runner::to_json(result);
  RunResult back;
  ASSERT_TRUE(runner::result_from_json(json, &back));
  EXPECT_TRUE(runner::results_identical(result, back));
  EXPECT_EQ(back.columnar.queries, result.columnar.queries);
  EXPECT_EQ(back.columnar.kernel(KernelKind::kAggregate).rows_in,
            result.columnar.kernel(KernelKind::kAggregate).rows_in);
}

TEST(ColumnarRunner, LoadRejectsPreColumnarStoreVersion) {
  // The store format was bumped when RunConfig grew the columnar section; a
  // pre-columnar store must fail to load rather than serve results whose
  // configs silently lack the columnar fields.
  ASSERT_GE(runner::ResultCache::kStoreVersion, 4);
  const std::string path = ::testing::TempDir() + "/tsx_v3_cache.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"format\":\"tsx-run-cache\",\"version\":3}\n", f);
  std::fclose(f);

  runner::ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

// --- row-vs-columnar equality gate ---------------------------------------

/// Scoped TSX_TASK_THREADS: set on construction, cleared on destruction.
struct TaskThreadsGuard {
  explicit TaskThreadsGuard(int threads) {
    setenv("TSX_TASK_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~TaskThreadsGuard() { unsetenv("TSX_TASK_THREADS"); }
};

/// The 28-config grid: both ported workloads at two scales under seven
/// knob variants. Run at 1/4/8 task threads that is the 84-config gate.
std::vector<RunConfig> gate_configs() {
  std::vector<RunConfig> out;
  for (App app : {App::kSort, App::kPagerank}) {
    for (ScaleId scale : {ScaleId::kTiny, ScaleId::kSmall}) {
      for (int variant = 0; variant < 7; ++variant) {
        RunConfig cfg;
        cfg.app = app;
        cfg.scale = scale;
        switch (variant) {
          case 0: break;                                  // defaults
          case 1: cfg.columnar.batch_rows = 512; break;   // many small batches
          case 2: cfg.columnar.batch_rows = 1024; break;
          case 3: cfg.columnar.arena_chunk_kib = 64; break;
          case 4: cfg.columnar.dict_capacity = 1024; break;
          case 5: cfg.seed = 777; break;                  // different dataset
          case 6: cfg.cores_per_executor = 16; break;     // fewer partitions
        }
        out.push_back(cfg);
      }
    }
  }
  return out;
}

TEST(ColumnarRunner, RowVsColumnarEqualityGate84Configs) {
  const std::vector<RunConfig> grid = gate_configs();
  ASSERT_EQ(grid.size(), 28u);

  // Per-config serialized columnar results, to also pin determinism across
  // task-thread counts (host wall-clock is excluded from serialization).
  std::vector<std::string> thread1_json(grid.size());

  int comparisons = 0;
  for (int threads : {1, 4, 8}) {
    TaskThreadsGuard guard(threads);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      RunConfig row = grid[i];
      row.columnar.enabled = false;
      RunConfig col = grid[i];
      col.columnar.enabled = true;

      const RunResult rr = workloads::run_workload(row);
      const RunResult cr = workloads::run_workload(col);
      ++comparisons;

      ASSERT_TRUE(rr.valid) << "row run invalid: " << row.describe();
      ASSERT_TRUE(cr.valid) << "columnar run invalid: " << col.describe();
      EXPECT_EQ(rr.validation, cr.validation)
          << "row/columnar mismatch at " << threads << " threads: "
          << col.describe();
      EXPECT_EQ(rr.columnar.queries, 0u);   // row path never builds the runtime
      EXPECT_GT(cr.columnar.queries, 0u);   // columnar path really ran
      EXPECT_GT(cr.columnar.batches, 0u);

      const std::string json = runner::to_json(cr);
      if (threads == 1) {
        thread1_json[i] = json;
      } else {
        EXPECT_EQ(json, thread1_json[i])
            << "columnar result not thread-count invariant: "
            << col.describe();
      }
    }
  }
  EXPECT_EQ(comparisons, 84);
}

}  // namespace
}  // namespace tsx::columnar
