// Tests for the extended RDD API: coalesce, zipWithUniqueId, take/first,
// top-n, numeric actions, foreach, distinct, aggregateByKey and broadcast
// variables.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/error.hpp"
#include "dfs/dfs.hpp"
#include "mem/machine.hpp"
#include "sim/simulator.hpp"
#include "spark/broadcast.hpp"
#include "spark/pair_rdd.hpp"

namespace tsx::spark {
namespace {

struct Engine {
  sim::Simulator simulator;
  mem::MachineModel machine{simulator};
  dfs::Dfs dfs;
  SparkConf conf;
  std::unique_ptr<SparkContext> sc;
  Engine() { sc = std::make_unique<SparkContext>(machine, dfs, conf, 42); }
  SparkContext& ctx() { return *sc; }
};

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// --- coalesce -------------------------------------------------------------------

TEST(Coalesce, PreservesOrderAndContents) {
  Engine e;
  auto rdd = coalesce_rdd(parallelize<int>(e.ctx(), iota_vec(100), 10), 3);
  EXPECT_EQ(rdd->num_partitions(), 3u);
  EXPECT_EQ(collect(rdd), iota_vec(100));
}

TEST(Coalesce, RejectsGrowth) {
  Engine e;
  auto base = parallelize<int>(e.ctx(), iota_vec(10), 2);
  EXPECT_THROW(coalesce_rdd(base, 5), tsx::Error);
  EXPECT_THROW(coalesce_rdd(base, 0), tsx::Error);
}

TEST(Coalesce, ToOnePartition) {
  Engine e;
  auto rdd = coalesce_rdd(parallelize<int>(e.ctx(), iota_vec(37), 9), 1);
  EXPECT_EQ(count(rdd), 37u);
}

// --- zipWithUniqueId -------------------------------------------------------------

TEST(ZipWithUniqueId, IdsAreUnique) {
  Engine e;
  auto rdd = zip_with_unique_id(parallelize<int>(e.ctx(), iota_vec(200), 7));
  std::set<std::uint64_t> ids;
  for (const auto& [value, id] : collect(rdd)) ids.insert(id);
  EXPECT_EQ(ids.size(), 200u);
}

TEST(ZipWithUniqueId, SparkIdScheme) {
  Engine e;
  auto rdd = zip_with_unique_id(parallelize<int>(e.ctx(), iota_vec(6), 2));
  for (const auto& [value, id] : collect(rdd)) {
    // partition p holds values [3p, 3p+3): id = index*2 + p.
    const std::uint64_t p = static_cast<std::uint64_t>(value) / 3;
    const std::uint64_t index = static_cast<std::uint64_t>(value) % 3;
    EXPECT_EQ(id, index * 2 + p);
  }
}

// --- take / first / top-n ---------------------------------------------------------

TEST(Take, ReturnsPrefix) {
  Engine e;
  auto rdd = parallelize<int>(e.ctx(), iota_vec(100), 10);
  EXPECT_EQ(take(rdd, 5), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(take(rdd, 0).empty());
}

TEST(Take, MoreThanAvailable) {
  Engine e;
  auto rdd = parallelize<int>(e.ctx(), iota_vec(7), 3);
  EXPECT_EQ(take(rdd, 100).size(), 7u);
}

TEST(Take, ComputesOnlyNeededPartitions) {
  Engine e;
  auto computed = std::make_shared<std::set<std::size_t>>();
  auto gen = generate_rdd<int>(
      e.ctx(), "g", 16,
      [computed](std::size_t p, Rng&) {
        computed->insert(p);
        return std::vector<int>{static_cast<int>(p), static_cast<int>(p)};
      },
      /*charge_input_io=*/false);
  take(gen, 2);
  EXPECT_LT(computed->size(), 16u);  // must not touch the whole dataset
}

TEST(First, ReturnsHeadOrThrows) {
  Engine e;
  EXPECT_EQ(first(parallelize<int>(e.ctx(), {42, 7}, 1)), 42);
  auto empty = filter_rdd(parallelize<int>(e.ctx(), iota_vec(5), 2),
                          [](const int&) { return false; });
  EXPECT_THROW(first(empty), tsx::Error);
}

TEST(TopN, DescendingLargest) {
  Engine e;
  auto rdd = parallelize<int>(e.ctx(), iota_vec(100), 8);
  EXPECT_EQ(top_n(rdd, 3), (std::vector<int>{99, 98, 97}));
  EXPECT_EQ(top_n(rdd, 200).size(), 100u);
}

// --- numeric actions ---------------------------------------------------------------

TEST(NumericActions, SumMinMax) {
  Engine e;
  auto rdd = parallelize<int>(e.ctx(), iota_vec(101), 6);
  EXPECT_DOUBLE_EQ(sum(rdd), 5050.0);
  EXPECT_EQ(min(rdd), 0);
  EXPECT_EQ(max(rdd), 100);
}

TEST(NumericActions, ForEachVisitsEverything) {
  Engine e;
  auto rdd = parallelize<int>(e.ctx(), iota_vec(50), 5);
  int total = 0;
  for_each(rdd, [&total](const int& x) { total += x; });
  EXPECT_EQ(total, 1225);
}

// --- distinct / aggregateByKey ------------------------------------------------------

TEST(Distinct, Deduplicates) {
  Engine e;
  std::vector<int> data;
  for (int i = 0; i < 300; ++i) data.push_back(i % 17);
  auto rdd = distinct(parallelize<int>(e.ctx(), data, 4), 5);
  auto out = collect(rdd);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, iota_vec(17));
}

TEST(AggregateByKey, DifferentAccumulatorType) {
  Engine e;
  std::vector<std::pair<int, double>> data;
  for (int i = 0; i < 90; ++i) data.emplace_back(i % 3, 1.0);
  // Accumulate (count, sum) pairs per key.
  using Acc = std::pair<std::uint64_t, double>;
  auto agg = aggregate_by_key(
      parallelize<std::pair<int, double>>(e.ctx(), data, 5), Acc{0, 0.0},
      [](Acc& acc, const double& v) {
        ++acc.first;
        acc.second += v;
      },
      [](Acc& acc, const Acc& other) {
        acc.first += other.first;
        acc.second += other.second;
      },
      4);
  const auto out = collect(agg);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& [key, acc] : out) {
    EXPECT_EQ(acc.first, 30u);
    EXPECT_DOUBLE_EQ(acc.second, 30.0);
  }
}

// --- broadcast ----------------------------------------------------------------------

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
  EXPECT_DOUBLE_EQ(sum(rdd), 45.0 * 7);
}

}  // namespace
}  // namespace tsx::spark
