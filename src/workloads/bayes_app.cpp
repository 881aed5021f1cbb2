// HiBench `bayes`: multinomial naive Bayes training (Table II: 25k/30k/100k
// pages, 10/100/100 classes). Documents are Zipf-worded pages labeled with
// a class; training is the word-count aggregation pattern — flatMap to
// ((class, word), 1), reduceByKey, plus per-class totals — followed by a
// driver-side model build and a training-set accuracy check.
#include <memory>

#include "core/strings.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"
#include "workloads/ml/naive_bayes.hpp"

namespace tsx::workloads {

namespace {

constexpr std::size_t kTokensPerPage = 40;
constexpr std::size_t kVocabulary = 8000;
constexpr std::uint64_t kSamplePageCap = 3000;

struct BayesScale {
  std::uint64_t pages;
  int classes;
};

BayesScale bayes_scale(ScaleId scale) {
  switch (scale) {
    case ScaleId::kTiny: return {25000, 10};
    case ScaleId::kSmall: return {30000, 100};
    case ScaleId::kLarge: return {100000, 100};
  }
  return {};
}

}  // namespace

AppOutcome run_bayes(spark::SparkContext& sc, ScaleId scale) {
  using namespace tsx::spark;
  using ml::Page;
  using ml::WordId;

  const BayesScale dims = bayes_scale(scale);
  const SampledScale plan = SampledScale::plan(dims.pages, kSamplePageCap);
  sc.set_cost_multiplier(plan.multiplier);

  const std::size_t parts = 8;
  const std::size_t sample_pages = plan.sample;
  const int classes = dims.classes;

  auto pages = generate_rdd<Page>(
      sc, "bayesPages", parts,
      [sample_pages, parts, classes](std::size_t p, Rng& rng) {
        // Class-conditional vocabularies: each class shifts the Zipf ranks,
        // so word distributions are separable and NB can actually learn.
        static const ZipfSampler sampler(kVocabulary, 1.1);
        const std::size_t lo = p * sample_pages / parts;
        const std::size_t hi = (p + 1) * sample_pages / parts;
        std::vector<Page> out;
        out.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          Page page;
          page.label = static_cast<int>(rng.uniform_u64(
              static_cast<std::uint64_t>(classes)));
          page.tokens.reserve(kTokensPerPage);
          for (std::size_t t = 0; t < kTokensPerPage; ++t) {
            page.tokens.push_back(static_cast<std::uint32_t>(
                (sampler(rng) + static_cast<std::uint64_t>(page.label) * 37) %
                kVocabulary));
          }
          out.push_back(std::move(page));
        }
        return out;
      });
  auto cached_pages = cache_rdd(pages);

  // ((class, word), count) aggregation — the workload's dominant shuffle.
  using ClassWord = std::pair<std::pair<int, WordId>, std::uint64_t>;
  auto class_word = flat_map_rdd<ClassWord>(
      cached_pages,
      [](const Page& page, std::vector<ClassWord>& out) {
        for (const std::uint32_t t : page.tokens)
          out.emplace_back(std::make_pair(page.label, WordId{t}), 1ULL);
      },
      "classWordPairs");
  auto word_counts = reduce_by_key(
      std::move(class_word),
      [](std::uint64_t a, std::uint64_t b) { return a + b; });

  AppOutcome outcome;
  spark::JobMetrics jm_counts;
  const auto counted = collect(word_counts, &jm_counts);
  outcome.jobs.push_back(jm_counts);

  // Per-class priors.
  auto labels = map_rdd(
      cached_pages, [](const Page& p) { return std::make_pair(p.label, 1ULL); },
      "labels");
  auto class_counts =
      reduce_by_key(std::move(labels),
                    [](std::uint64_t a, std::uint64_t b) { return a + b; });
  spark::JobMetrics jm_priors;
  const auto priors_raw = collect(class_counts, &jm_priors);
  outcome.jobs.push_back(jm_priors);

  // Driver-side model: log priors + Laplace-smoothed log likelihoods.
  // (The RDD literals are unsigned long long; normalize to uint64_t.)
  const std::vector<std::pair<std::pair<int, WordId>, std::uint64_t>>
      counted_u64(counted.begin(), counted.end());
  const std::vector<std::pair<int, std::uint64_t>> priors_u64(
      priors_raw.begin(), priors_raw.end());
  auto model = std::make_shared<ml::NaiveBayesModel>(ml::build_naive_bayes(
      counted_u64, priors_u64, classes, sample_pages, kVocabulary));

  // Training-set accuracy via a classify job.
  auto correct_flags = map_rdd(
      cached_pages,
      [model](const Page& page) {
        return ml::classify(*model, page.tokens) == page.label ? 1ULL : 0ULL;
      },
      "classify");
  spark::JobMetrics jm_eval;
  const std::uint64_t correct = reduce(
      correct_flags, [](std::uint64_t a, std::uint64_t b) { return a + b; },
      &jm_eval);
  outcome.jobs.push_back(jm_eval);

  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(sample_pages);
  const double chance = 1.0 / static_cast<double>(classes);
  outcome.valid = accuracy > chance * 1.5;
  outcome.validation = strfmt(
      "accuracy=%.3f chance=%.3f vocabulary-pairs=%zu", accuracy, chance,
      counted.size());
  return outcome;
}

}  // namespace tsx::workloads
