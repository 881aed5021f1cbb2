// Tests for tsx::tiering: option parsing, the hotness tracker (LFU aging),
// the three policies against synthetic plan contexts, the migration cost
// model's ledger/energy charging, and the engine end-to-end on a live
// SparkContext — including the static-policy non-perturbation guarantee the
// bench equivalence check relies on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/error.hpp"
#include "dfs/dfs.hpp"
#include "mem/machine.hpp"
#include "obs/recorder.hpp"
#include "runner/serialize.hpp"
#include "sim/simulator.hpp"
#include "spark/context.hpp"
#include "spark/pair_rdd.hpp"
#include "spark/rdd.hpp"
#include "tiering/engine.hpp"
#include "tiering/policy.hpp"
#include "workloads/runner.hpp"

namespace tsx::tiering {
namespace {

using spark::StreamClass;

// --- options ---------------------------------------------------------------

TEST(TieringOptions, PolicyNamesAndIndicesRoundTrip) {
  for (const PolicyKind kind : kAllPolicies) {
    EXPECT_EQ(policy_from_name(to_string(kind)), kind);
    EXPECT_EQ(policy_from_index(static_cast<int>(kind)), kind);
  }
  EXPECT_THROW(policy_from_name("numa-interleave"), tsx::Error);
  EXPECT_THROW(policy_from_index(-1), tsx::Error);
  EXPECT_THROW(policy_from_index(99), tsx::Error);
  // Index 2 was the retired bandwidth-aware policy; watermark keeps 3.
  EXPECT_THROW(policy_from_index(2), tsx::Error);
  EXPECT_EQ(policy_from_index(3), PolicyKind::kWatermark);
}

TEST(TieringOptions, DefaultConfigIsTheStaticBaseline) {
  const TieringConfig cfg;
  EXPECT_EQ(cfg.policy, PolicyKind::kStatic);
}

// --- hotness tracker -------------------------------------------------------

TEST(Hotness, LfuAgingAcrossEpochs) {
  HotnessTracker tracker;  // ages by half per epoch
  const spark::RegionId id = spark::cache_region(1, 0);
  tracker.put(StreamClass::kCache, id, Bytes::kib(64), mem::TierId::kTier2);

  tracker.access(id, Bytes::of(6400));  // ceil(6400 / 64) = 100 accesses
  tracker.roll_epoch();
  EXPECT_DOUBLE_EQ(tracker.find(id)->hotness, 100.0);
  tracker.roll_epoch();  // no accesses: geometric fade
  EXPECT_DOUBLE_EQ(tracker.find(id)->hotness, 50.0);
  tracker.roll_epoch();
  EXPECT_DOUBLE_EQ(tracker.find(id)->hotness, 25.0);
}

TEST(Hotness, UnknownRegionAccessesAreIgnored) {
  HotnessTracker tracker;
  tracker.access(spark::cache_region(9, 9), Bytes::kib(1));
  EXPECT_EQ(tracker.region_count(), 0u);
}

TEST(Hotness, DropForgetsTheRegion) {
  HotnessTracker tracker;
  const spark::RegionId id = spark::shuffle_region(0, 3);
  tracker.put(StreamClass::kShuffle, id, Bytes::kib(8), mem::TierId::kTier2);
  EXPECT_EQ(tracker.region_count(), 1u);
  tracker.drop(id);
  EXPECT_EQ(tracker.region_count(), 0u);
  EXPECT_EQ(tracker.find(id), nullptr);
}

TEST(Hotness, ClassTierWeightsFallBackToResidentBytes) {
  HotnessTracker tracker;
  tracker.put(StreamClass::kCache, spark::cache_region(1, 0), Bytes::of(300),
              mem::TierId::kTier2);
  tracker.put(StreamClass::kCache, spark::cache_region(1, 1), Bytes::of(100),
              mem::TierId::kTier0);
  // No accesses yet: weights are resident bytes per tier.
  const auto by_bytes = tracker.class_tier_weights(StreamClass::kCache);
  EXPECT_DOUBLE_EQ(by_bytes[0], 100.0);
  EXPECT_DOUBLE_EQ(by_bytes[2], 300.0);
  // Empty class: all-zero.
  const auto empty = tracker.class_tier_weights(StreamClass::kShuffle);
  for (const double w : empty) EXPECT_DOUBLE_EQ(w, 0.0);
  // Once a region is accessed, hotness takes over.
  tracker.access(spark::cache_region(1, 1), Bytes::of(640));
  const auto by_hotness = tracker.class_tier_weights(StreamClass::kCache);
  EXPECT_DOUBLE_EQ(by_hotness[0], 10.0);
  EXPECT_DOUBLE_EQ(by_hotness[2], 0.0);
}

// --- policies --------------------------------------------------------------

Region make_region(spark::RegionId id, double hotness, double size,
                   mem::TierId tier, bool migrating = false) {
  Region r;
  r.id = id;
  r.cls = StreamClass::kCache;
  r.size = Bytes::of(size);
  r.tier = tier;
  r.hotness = hotness;
  r.migrating = migrating;
  return r;
}

PlanContext make_context(std::vector<Region> regions, double capacity) {
  PlanContext ctx;
  ctx.regions = std::move(regions);
  ctx.fast = mem::TierId::kTier0;
  ctx.slow = mem::TierId::kTier2;
  ctx.fast_capacity = Bytes::of(capacity);
  Bytes used = Bytes::zero();
  for (const Region& r : ctx.regions)
    if (r.tier == ctx.fast) used += r.size;
  ctx.fast_used = used;
  ctx.multiplier = 1.0;
  return ctx;
}

TEST(StaticPolicy, NeverMoves) {
  auto policy = make_policy(PolicyKind::kStatic);
  const auto ctx = make_context(
      {make_region(1, 1000.0, 64.0, mem::TierId::kTier2)}, 1024.0);
  EXPECT_TRUE(policy->plan(ctx).empty());
  EXPECT_EQ(policy->name(), "static");
}

TEST(LfuPromote, PromotesHottestFirstWithinCapacity) {
  auto policy = make_policy(PolicyKind::kLfuPromote);
  const auto ctx = make_context(
      {make_region(1, 5.0, 60.0, mem::TierId::kTier2),
       make_region(2, 9.0, 60.0, mem::TierId::kTier2),
       make_region(3, 0.0, 60.0, mem::TierId::kTier2)},  // cold: stays
      100.0);
  const auto moves = policy->plan(ctx);
  // Only the hottest fits; the second candidate has no colder resident to
  // displace, and the cold region is not a candidate at all.
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].region, 2u);
  EXPECT_EQ(moves[0].from, mem::TierId::kTier2);
  EXPECT_EQ(moves[0].to, mem::TierId::kTier0);
  EXPECT_DOUBLE_EQ(moves[0].bytes.b(), 60.0);
}

TEST(LfuPromote, EvictsColderResidentsForHotterCandidates) {
  auto policy = make_policy(PolicyKind::kLfuPromote);
  const auto ctx = make_context(
      {make_region(1, 1.0, 80.0, mem::TierId::kTier0),    // cold resident
       make_region(2, 10.0, 80.0, mem::TierId::kTier2)},  // hot candidate
      100.0);
  const auto moves = policy->plan(ctx);
  ASSERT_EQ(moves.size(), 2u);
  // Demotion first (to make room), then the promotion.
  EXPECT_EQ(moves[0].region, 1u);
  EXPECT_EQ(moves[0].to, mem::TierId::kTier2);
  EXPECT_EQ(moves[1].region, 2u);
  EXPECT_EQ(moves[1].to, mem::TierId::kTier0);
}

TEST(LfuPromote, NeverEvictsHotterResidents) {
  auto policy = make_policy(PolicyKind::kLfuPromote);
  const auto ctx = make_context(
      {make_region(1, 20.0, 80.0, mem::TierId::kTier0),
       make_region(2, 10.0, 80.0, mem::TierId::kTier2)},
      100.0);
  // The resident is hotter than the candidate: the carve-out already holds
  // the better content, nothing moves.
  EXPECT_TRUE(policy->plan(ctx).empty());
}

TEST(LfuPromote, SkipsInFlightRegions) {
  auto policy = make_policy(PolicyKind::kLfuPromote);
  const auto ctx = make_context(
      {make_region(1, 50.0, 60.0, mem::TierId::kTier2, /*migrating=*/true)},
      1024.0);
  EXPECT_TRUE(policy->plan(ctx).empty());
}

TEST(Watermark, DemotesColdestUntilHighWatermarkRestored) {
  // Watermarks 10% / 30%: demote when free < 100 until free >= 300.
  auto policy = make_policy(PolicyKind::kWatermark);
  const auto ctx = make_context(
      {make_region(1, 1.0, 200.0, mem::TierId::kTier0),   // coldest
       make_region(2, 5.0, 200.0, mem::TierId::kTier0),
       make_region(3, 9.0, 550.0, mem::TierId::kTier0)},  // hottest
      1000.0);  // free = 50 < low
  const auto moves = policy->plan(ctx);
  // Demoting regions 1 then 2 lifts free space to 450 >= 300; the hottest
  // resident survives.
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].region, 1u);
  EXPECT_EQ(moves[1].region, 2u);
  EXPECT_EQ(moves[0].to, mem::TierId::kTier2);
}

TEST(Watermark, PromotesOnlyWhileFreeStaysAboveHighWatermark) {
  auto policy = make_policy(PolicyKind::kWatermark);
  const auto ctx = make_context(
      {make_region(1, 9.0, 500.0, mem::TierId::kTier2),
       make_region(2, 5.0, 300.0, mem::TierId::kTier2)},
      1000.0);  // free = 1000
  const auto moves = policy->plan(ctx);
  // Promoting the hot 500 B region leaves 500 B free (>= 300); promoting
  // the next would leave 200 B (< 300), so it stays on the slow tier.
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].region, 1u);
  EXPECT_EQ(moves[0].to, mem::TierId::kTier0);
}

// --- migration cost model --------------------------------------------------

TEST(CostModel, NvmWriteEnergyOnlyForNvmDestinations) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  MigrationCostModel model(machine, 1);

  const auto promote =
      model.estimate(mem::TierId::kTier2, mem::TierId::kTier0, Bytes::mib(64));
  EXPECT_DOUBLE_EQ(promote.nvm_bytes_written.b(), 0.0);
  EXPECT_DOUBLE_EQ(promote.nvm_write_energy.j(), 0.0);

  const auto demote =
      model.estimate(mem::TierId::kTier0, mem::TierId::kTier2, Bytes::mib(64));
  EXPECT_DOUBLE_EQ(demote.nvm_bytes_written.b(), Bytes::mib(64).b());
  const mem::TierSpec nvm = machine.tier(1, mem::TierId::kTier2);
  EXPECT_NEAR(demote.nvm_write_energy.j(),
              Bytes::mib(64).b() * nvm.tech->write_pj_per_byte * 1e-12,
              1e-12);
}

TEST(CostModel, WriteAsymmetryMakesDemotionSlowerThanPromotion) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  MigrationCostModel model(machine, 1);
  const Bytes volume = Bytes::mib(64);
  const auto promote =
      model.estimate(mem::TierId::kTier2, mem::TierId::kTier0, volume);
  const auto demote =
      model.estimate(mem::TierId::kTier0, mem::TierId::kTier2, volume);
  // Optane's write path is far slower than its read path, so pushing a
  // region out to NVM costs more than pulling it in.
  EXPECT_GT(demote.copy_time.sec(), promote.copy_time.sec());
  EXPECT_GT(promote.copy_time.sec(), 0.0);
}

TEST(CostModel, ExecuteChargesBothNodesAndCompletes) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  MigrationCostModel model(machine, 1);
  const mem::TierSpec dram = machine.tier(1, mem::TierId::kTier0);
  const mem::TierSpec nvm = machine.tier(1, mem::TierId::kTier2);

  bool done = false;
  model.execute(mem::TierId::kTier0, mem::TierId::kTier2, Bytes::mib(16),
                [&done] { done = true; });
  simulator.run();
  EXPECT_TRUE(done);
  // Read half charged on the source (DRAM) node, write half on the
  // destination (NVM) node — this is what feeds energy and wear.
  EXPECT_DOUBLE_EQ(machine.traffic().node(dram.node).read_bytes.b(),
                   Bytes::mib(16).b());
  EXPECT_DOUBLE_EQ(machine.traffic().node(nvm.node).write_bytes.b(),
                   Bytes::mib(16).b());
}

// --- engine on a live SparkContext -----------------------------------------

struct JobOutcome {
  double exec_seconds = 0.0;
  std::vector<double> node_bytes;  // read + write per node, ledger view
  TieringStats stats;
  std::size_t promote_spans = 0;  ///< "tiering.promote" migration spans
};

/// Runs a cache-reuse job (one cached RDD counted `rounds` times) on a
/// fresh simulation, optionally with a tiering engine attached.
JobOutcome run_cached_job(spark::SparkConf conf,
                          const TieringConfig* tiering, int rounds = 8) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  dfs::Dfs dfs;
  spark::SparkContext sc(machine, dfs, conf, 42);

  obs::Recorder rec;
  std::unique_ptr<Engine> engine;
  if (tiering != nullptr) {
    engine = std::make_unique<Engine>(sc, *tiering);
    engine->set_obs(&rec);
    engine->start();
  }

  auto data = spark::generate_rdd<int>(
      sc, "hot-data", 8,
      [](std::size_t, Rng&) { return std::vector<int>(8192, 7); },
      /*charge_input_io=*/false);
  auto cached = spark::cache_rdd(data);
  for (int r = 0; r < rounds; ++r) spark::count(cached);

  JobOutcome out;
  out.exec_seconds = simulator.now().sec();
  for (std::size_t n = 0; n < machine.topology().nodes.size(); ++n) {
    const auto& t = machine.traffic().node(static_cast<mem::NodeId>(n));
    out.node_bytes.push_back(t.read_bytes.b() + t.write_bytes.b());
  }
  if (engine) {
    out.stats = engine->stats();
    for (const obs::Span& s : rec.spans())
      if (s.kind == obs::SpanKind::kMigration &&
          s.category == "tiering.promote")
        ++out.promote_spans;
  }
  return out;
}

TEST(Engine, StaticPolicyDoesNotPerturbTheRun) {
  spark::SparkConf conf;
  conf.mem_bind = mem::TierId::kTier2;
  TieringConfig static_cfg;  // policy = kStatic

  const JobOutcome bare = run_cached_job(conf, nullptr);
  const JobOutcome hooked = run_cached_job(conf, &static_cfg);

  // Attaching the engine under the static policy changes nothing: no epoch
  // events, no traffic-split opinion, identical time and ledger.
  EXPECT_DOUBLE_EQ(hooked.exec_seconds, bare.exec_seconds);
  ASSERT_EQ(hooked.node_bytes.size(), bare.node_bytes.size());
  for (std::size_t n = 0; n < bare.node_bytes.size(); ++n)
    EXPECT_DOUBLE_EQ(hooked.node_bytes[n], bare.node_bytes[n]);
  EXPECT_EQ(hooked.stats.epochs, 0u);
  EXPECT_EQ(hooked.stats.promotions, 0u);
}

TEST(Engine, LfuPromotesHotCacheBlocksIntoDram) {
  spark::SparkConf conf;
  conf.mem_bind = mem::TierId::kTier2;  // capacity-tier deployment
  TieringConfig lfu;
  lfu.policy = PolicyKind::kLfuPromote;
  lfu.epoch_ms = 10.0;

  const JobOutcome baseline = run_cached_job(conf, nullptr);
  const JobOutcome tiered = run_cached_job(conf, &lfu);

  EXPECT_GT(tiered.stats.epochs, 0u);
  EXPECT_GT(tiered.stats.promotions, 0u);
  EXPECT_GT(tiered.stats.bytes_promoted.b(), 0.0);
  EXPECT_EQ(tiered.promote_spans, tiered.stats.promotions);
  // Promotion-only exchanges from NVM to DRAM write no NVM media bytes.
  EXPECT_EQ(tiered.stats.demotions, 0u);
  EXPECT_DOUBLE_EQ(tiered.stats.nvm_bytes_written.b(), 0.0);
  // Hot cache reads now land on the DRAM node: the run finishes faster.
  EXPECT_LT(tiered.exec_seconds, baseline.exec_seconds);
}

TEST(Engine, TracksShuffleRegions) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  dfs::Dfs dfs;
  spark::SparkConf conf;
  conf.mem_bind = mem::TierId::kTier2;
  spark::SparkContext sc(machine, dfs, conf, 42);

  TieringConfig cfg;
  cfg.policy = PolicyKind::kLfuPromote;
  Engine engine(sc, cfg);
  engine.start();

  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 20000; ++i) data.emplace_back(i % 64, i);
  spark::collect(spark::reduce_by_key(
      spark::parallelize<std::pair<int, int>>(sc, data, 8),
      [](int a, int b) { return a + b; }, 8));

  bool saw_shuffle_region = false;
  for (const Region& r : engine.tracker().snapshot())
    if (r.cls == StreamClass::kShuffle) saw_shuffle_region = true;
  EXPECT_TRUE(saw_shuffle_region);
}

// --- run_workload integration ----------------------------------------------

TEST(RunWorkload, LfuBeatsStaticOnCacheHeavyCapacityTierRun) {
  workloads::RunConfig baseline;
  baseline.app = workloads::App::kPagerank;  // iterative, cache-bound
  baseline.scale = workloads::ScaleId::kTiny;
  baseline.tier = mem::TierId::kTier2;

  workloads::RunConfig tiered = baseline;
  tiered.tiering.policy = PolicyKind::kLfuPromote;

  const workloads::RunResult a = workloads::run_workload(baseline);
  const workloads::RunResult b = workloads::run_workload(tiered);
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(a.tiering.promotions, 0u);  // static: engine never constructed
  EXPECT_GT(b.tiering.promotions, 0u);
  EXPECT_LT(b.exec_time.sec(), a.exec_time.sec());
}

TEST(RunWorkload, TieringResultSerializationRoundTrips) {
  workloads::RunConfig cfg;
  cfg.app = workloads::App::kPagerank;
  cfg.scale = workloads::ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier2;
  cfg.tiering.policy = PolicyKind::kWatermark;
  cfg.tiering.epoch_ms = 25.0;
  cfg.tiering.fast_capacity_gib = 1e-3;

  const workloads::RunResult original = workloads::run_workload(cfg);
  workloads::RunResult decoded;
  ASSERT_TRUE(runner::result_from_json(runner::to_json(original), &decoded));
  EXPECT_TRUE(runner::results_identical(original, decoded));
  EXPECT_EQ(decoded.config, original.config);
  EXPECT_EQ(decoded.tiering.promotions, original.tiering.promotions);
  EXPECT_DOUBLE_EQ(decoded.tiering.nvm_write_energy.j(),
                   original.tiering.nvm_write_energy.j());
}

}  // namespace
}  // namespace tsx::tiering
