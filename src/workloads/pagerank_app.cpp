// HiBench `pagerank`: iterative PageRank over a Zipf-skewed web graph
// (Table II: 50 / 5k / 500k pages). Classic RDD formulation: the adjacency
// list is cached; every iteration joins it with the current ranks, scatters
// contributions along edges and aggregates them with reduceByKey — three
// shuffles per iteration, which is what makes this the study's most
// shuffle-intensive workload.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/strings.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"

namespace tsx::workloads {

namespace {

constexpr int kIterations = 3;
constexpr double kDamping = 0.85;
constexpr std::uint64_t kSamplePageCap = 12000;
constexpr std::size_t kMeanDegree = 8;

std::uint64_t nominal_pages(ScaleId scale) {
  switch (scale) {
    case ScaleId::kTiny: return 50;
    case ScaleId::kSmall: return 5000;
    case ScaleId::kLarge: return 500000;
  }
  return 0;
}

}  // namespace

AppOutcome run_pagerank(spark::SparkContext& sc, ScaleId scale) {
  using namespace tsx::spark;

  const SampledScale plan =
      SampledScale::plan(nominal_pages(scale), kSamplePageCap);
  sc.set_cost_multiplier(plan.multiplier);

  const auto pages = static_cast<std::uint32_t>(plan.sample);
  const std::size_t parts =
      std::max<std::size_t>(2, std::min<std::size_t>(16, pages / 64 + 1));

  // One link-target sampler per run, shared read-only by every partition.
  const auto targets = std::make_shared<const ZipfSampler>(pages, 0.9);
  auto links = cache_rdd(generate_rdd<AdjacencyRow>(
      sc, "webGraph", parts, [pages, parts, targets](std::size_t p, Rng& rng) {
        const auto lo = static_cast<std::uint32_t>(p * pages / parts);
        const auto hi = static_cast<std::uint32_t>((p + 1) * pages / parts);
        return random_graph_rows(rng, lo, hi - lo, pages, *targets,
                                 kMeanDegree);
      }));

  auto ranks = map_rdd(
      links,
      [](const AdjacencyRow& row) { return std::make_pair(row.first, 1.0); },
      "initRanks");

  AppOutcome outcome;
  // Shuffle parallelism follows Spark's default (total cores): with many
  // skinny executors a small graph shatters into tiny tasks whose dispatch
  // and cross-executor fetches dominate — the Fig. 4 small-vs-large
  // asymmetry.
  for (int iter = 0; iter < kIterations; ++iter) {
    auto joined = join(links, ranks);
    auto contribs = flat_map_rdd<std::pair<std::uint32_t, double>>(
        std::move(joined),
        [](const std::pair<std::uint32_t,
                           std::pair<std::vector<std::uint32_t>, double>>& kv,
           std::vector<std::pair<std::uint32_t, double>>& out) {
          const auto& [neighbors, rank] = kv.second;
          const double share =
              neighbors.empty()
                  ? 0.0
                  : rank / static_cast<double>(neighbors.size());
          for (const std::uint32_t n : neighbors) out.emplace_back(n, share);
        },
        "contributions");
    auto summed = reduce_by_key(
        std::move(contribs), [](double a, double b) { return a + b; });
    ranks = map_values(std::move(summed), [](double x) {
      return (1.0 - kDamping) + kDamping * x;
    });
  }

  spark::JobMetrics jm;
  const auto final_ranks = collect(ranks, &jm);
  outcome.jobs.push_back(jm);

  // Validation: ranks positive; total mass near page count (dangling pages
  // leak a little mass, so allow a tolerant lower bound); the Zipf-popular
  // low-id pages must out-rank the median page.
  double total = 0.0;
  double max_rank = 0.0;
  bool positive = true;
  for (const auto& [page, rank] : final_ranks) {
    total += rank;
    max_rank = std::max(max_rank, rank);
    if (rank <= 0.0) positive = false;
  }
  const std::size_t count = final_ranks.size();
  const double mean_rank =
      count == 0 ? 0.0 : total / static_cast<double>(count);
  const bool mass_ok = total > 0.5 * static_cast<double>(pages) &&
                       total < 1.2 * static_cast<double>(pages);
  const bool skewed = max_rank > 2.0 * mean_rank;
  outcome.valid = positive && mass_ok && (pages < 100 || skewed);
  outcome.validation =
      strfmt("pages=%u totalMass=%.1f maxRank=%.2f meanRank=%.3f", pages,
             total, max_rank, mean_rank);
  return outcome;
}

}  // namespace tsx::workloads
