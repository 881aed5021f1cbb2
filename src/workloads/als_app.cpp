// HiBench `als`: alternating least squares matrix factorization
// (Table II: 100/1k/10k users x 100/1k/10k products, 200/2k/20k ratings).
//
// Implements the classic ALS loop on the RDD API: ratings are grouped by
// user and by product once (two shuffles, both cached), then each sweep
// solves a rank-k ridge system per entity with the other side's factors
// broadcast from the driver. Dataset sizes are small even at `large` —
// which is exactly why the paper observes near-constant ALS execution time
// across scales and tiers: framework overhead dominates.
#include <array>
#include <cmath>
#include <memory>

#include "core/strings.hpp"
#include "spark/broadcast.hpp"
#include "workloads/ml/ridge.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"

namespace tsx::workloads {

namespace {

constexpr int kRank = 8;
constexpr int kIterations = 4;
constexpr double kRidge = 0.1;

struct AlsScale {
  std::uint32_t users;
  std::uint32_t products;
  std::size_t ratings;
};

AlsScale als_scale(ScaleId scale) {
  switch (scale) {
    case ScaleId::kTiny: return {100, 100, 200};
    case ScaleId::kSmall: return {1000, 1000, 2000};
    case ScaleId::kLarge: return {10000, 10000, 20000};
  }
  return {};
}

using Factor = ml::Factor<kRank>;
using FactorTable = ml::FactorTable<kRank>;

}  // namespace

AppOutcome run_als(spark::SparkContext& sc, ScaleId scale) {
  using namespace tsx::spark;

  const AlsScale dims = als_scale(scale);
  sc.set_cost_multiplier(1.0);  // fully materialized at every scale

  const std::size_t parts = std::max<std::size_t>(
      2, std::min<std::size_t>(16, dims.ratings / 128 + 1));
  auto ratings = generate_rdd<Rating>(
      sc, "ratings", parts, [dims, parts](std::size_t p, Rng& rng) {
        const std::size_t lo = p * dims.ratings / parts;
        const std::size_t hi = (p + 1) * dims.ratings / parts;
        return random_ratings(rng, hi - lo, dims.users, dims.products);
      });

  auto by_user = cache_rdd(group_by_key(
      map_rdd(ratings,
              [](const Rating& r) {
                return std::make_pair(r.user,
                                      std::make_pair(r.product, r.score));
              },
              "keyByUser"),
      parts));
  auto by_product = cache_rdd(group_by_key(
      map_rdd(ratings,
              [](const Rating& r) {
                return std::make_pair(r.product,
                                      std::make_pair(r.user, r.score));
              },
              "keyByProduct"),
      parts));

  // Driver-held (broadcast) factor tables, deterministically initialized.
  auto user_f = std::make_shared<FactorTable>(dims.users);
  auto prod_f = std::make_shared<FactorTable>(dims.products);
  Rng init(sc.job_seed() ^ 0xa15a15ULL);
  for (auto& f : *user_f)
    for (auto& v : f) v = 0.1 * init.normal();
  for (auto& f : *prod_f)
    for (auto& v : f) v = 0.1 * init.normal();

  AppOutcome outcome;
  using Obs = std::pair<std::uint32_t, ml::Observations>;

  auto sweep = [&](const RddPtr<Obs>& grouped,
                   const std::shared_ptr<FactorTable>& fixed,
                   const std::shared_ptr<FactorTable>& update) {
    // Ship the fixed side's factors to the executors, like Spark ALS does.
    auto bc = std::make_shared<Broadcast<FactorTable>>(broadcast(*fixed));
    auto solved = map_partitions_rdd<std::pair<std::uint32_t, Factor>>(
        grouped,
        [bc](const std::vector<Obs>& rows, TaskContext& ctx) {
          const FactorTable& table = bc->value(ctx);
          // Two entities per elimination, each lane bit-exact.
          auto out = ml::solve_ridge_rows<kRank>(rows, table, kRidge);
          double ratings_seen = 0.0;
          for (const Obs& row : rows)
            ratings_seen += static_cast<double>(row.second.size());
          const double n = static_cast<double>(rows.size());
          // rank^2 work per rating + rank^3 solve per entity; each rating
          // chases the other side's factor row (dependent read); solving
          // writes the entity's new row.
          ctx.charge_cpu_ns(ratings_seen * kRank * kRank * 0.8 +
                            n * kRank * kRank * kRank * 0.6);
          ctx.charge_dep_reads(ratings_seen * 2.5);
          ctx.charge_dep_writes(n * 1.0);
          return out;
        },
        "solveFactors");
    spark::JobMetrics jm;
    for (auto& [id, f] : collect(solved, &jm)) (*update)[id] = f;
    outcome.jobs.push_back(jm);
  };

  for (int iter = 0; iter < kIterations; ++iter) {
    sweep(by_user, prod_f, user_f);
    sweep(by_product, user_f, prod_f);
  }

  // Validation: training RMSE must beat the trivial all-zero predictor.
  auto err = map_rdd(
      ratings,
      [user_f, prod_f](const Rating& r) {
        const double e =
            static_cast<double>(r.score) - ml::dot<kRank>((*user_f)[r.user],
                                           (*prod_f)[r.product]);
        return std::make_pair(e * e, static_cast<double>(r.score) *
                                         static_cast<double>(r.score));
      },
      "squaredError");
  spark::JobMetrics jm;
  const auto sums = reduce(
      err,
      [](const std::pair<double, double>& a, const std::pair<double, double>& b) {
        return std::make_pair(a.first + b.first, a.second + b.second);
      },
      &jm);
  outcome.jobs.push_back(jm);

  const double n = static_cast<double>(dims.ratings);
  const double rmse = std::sqrt(sums.first / n);
  const double rms_baseline = std::sqrt(sums.second / n);
  outcome.valid = std::isfinite(rmse) && rmse < rms_baseline;
  outcome.validation = strfmt("rmse=%.3f baseline=%.3f users=%u products=%u",
                              rmse, rms_baseline, dims.users, dims.products);
  return outcome;
}

}  // namespace tsx::workloads
