// HiBench `lda`: Latent Dirichlet Allocation topic modeling (Table II:
// 2k/5k/10k docs, 1k/2k/3k vocabulary, 10/20/30 topics).
//
// Distributed partition-local Gibbs sweeps with per-iteration global
// synchronization: every task samples a topic for each token of its
// partition against the broadcast topic-word counts, accumulating a local
// delta matrix that a reduce folds into the next global state. The count-
// matrix updates make this the study's write-heavy workload — the paper's
// lda-large is the run whose NVM execution time "skyrockets proportionally
// to the number of write operations" (Sec. IV-B).
#include <cmath>
#include <memory>

#include "core/strings.hpp"
#include "spark/broadcast.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"

namespace tsx::workloads {

namespace {

constexpr int kIterations = 3;
constexpr std::size_t kTokensPerDoc = 60;
constexpr std::uint64_t kSampleDocCap = 2500;

struct LdaScale {
  std::uint64_t docs;
  std::size_t vocabulary;
  int topics;
};

LdaScale lda_scale(ScaleId scale) {
  switch (scale) {
    case ScaleId::kTiny: return {2000, 1000, 10};
    case ScaleId::kSmall: return {5000, 2000, 20};
    case ScaleId::kLarge: return {10000, 3000, 30};
  }
  return {};
}

using Doc = std::vector<std::uint32_t>;  // token word-ids
using CountMatrix = std::vector<double>;  // topics x vocabulary, row-major

// One iteration's Gibbs conditional, word-major so a token reads one
// contiguous row: weight[w * topics + k] = counts[k][w] / topic_total[k],
// and word_total[w] sums that row in topic order. Built once on the driver
// from the broadcast counts with the same operands, division and summation
// order a task would use, so every sampled topic is unchanged.
struct GibbsTable {
  std::vector<double> weight;
  std::vector<double> word_total;
};

GibbsTable gibbs_table(const CountMatrix& counts, int topics,
                       std::size_t vocab) {
  const auto k_count = static_cast<std::size_t>(topics);
  std::vector<double> topic_totals(k_count, 0.0);
  for (std::size_t k = 0; k < k_count; ++k)
    for (std::size_t w = 0; w < vocab; ++w)
      topic_totals[k] += counts[k * vocab + w];
  GibbsTable table;
  table.weight.resize(vocab * k_count);
  table.word_total.assign(vocab, 0.0);
  for (std::size_t w = 0; w < vocab; ++w) {
    double* row = &table.weight[w * k_count];
    double total = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) {
      row[k] = counts[k * vocab + w] / topic_totals[k];
      total += row[k];
    }
    table.word_total[w] = total;
  }
  return table;
}

}  // namespace

AppOutcome run_lda(spark::SparkContext& sc, ScaleId scale) {
  using namespace tsx::spark;

  const LdaScale dims = lda_scale(scale);
  const SampledScale plan = SampledScale::plan(dims.docs, kSampleDocCap);
  sc.set_cost_multiplier(plan.multiplier);

  const std::size_t parts = 8;
  const std::size_t sample_docs = plan.sample;
  const std::size_t vocab = dims.vocabulary;
  const int topics = dims.topics;

  auto docs = cache_rdd(generate_rdd<Doc>(
      sc, "ldaDocs", parts, [sample_docs, parts, vocab](std::size_t p,
                                                        Rng& rng) {
        // Ground-truth topics: each doc draws one dominant topic whose
        // vocabulary occupies a contiguous band — recoverable structure.
        const std::size_t lo = p * sample_docs / parts;
        const std::size_t hi = (p + 1) * sample_docs / parts;
        const ZipfSampler in_band(vocab / 4, 1.05);
        std::vector<Doc> out;
        out.reserve(hi - lo);
        for (std::size_t d = lo; d < hi; ++d) {
          const std::uint64_t band = rng.uniform_u64(4);
          Doc doc;
          doc.reserve(kTokensPerDoc);
          for (std::size_t t = 0; t < kTokensPerDoc; ++t) {
            const std::uint64_t base = in_band(rng);
            const bool stray = rng.bernoulli(0.15);
            const std::uint64_t chosen_band =
                stray ? rng.uniform_u64(4) : band;
            doc.push_back(static_cast<std::uint32_t>(
                (chosen_band * (vocab / 4) + base) % vocab));
          }
          out.push_back(std::move(doc));
        }
        return out;
      }));

  // Global topic-word counts, symmetric prior start.
  auto global = std::make_shared<CountMatrix>(
      static_cast<std::size_t>(topics) * vocab, 0.1);

  AppOutcome outcome;
  for (int iter = 0; iter < kIterations; ++iter) {
    // Broadcast this iteration's topic-word counts (MLlib ships the topic
    // matrix the same way).
    auto bc = std::make_shared<Broadcast<CountMatrix>>(broadcast(*global));
    auto table = std::make_shared<const GibbsTable>(
        gibbs_table(bc->driver_value(), topics, vocab));
    auto deltas = map_partitions_rdd<CountMatrix>(
        docs,
        [bc, table, topics, vocab](const std::vector<Doc>& part_docs,
                                   TaskContext& ctx) {
          bc->value(ctx);  // the task still reads the broadcast counts
          const auto k_count = static_cast<std::size_t>(topics);
          CountMatrix delta(k_count * vocab, 0.0);
          Rng rng = ctx.rng().fork(0x1da);
          double tokens = 0.0;
          for (const Doc& doc : part_docs) {
            for (const std::uint32_t w : doc) {
              tokens += 1.0;
              const double* weights = &table->weight[w * k_count];
              double u = rng.uniform() * table->word_total[w];
              std::size_t chosen = k_count - 1;
              for (std::size_t k = 0; k < k_count; ++k) {
                u -= weights[k];
                if (u <= 0.0) {
                  chosen = k;
                  break;
                }
              }
              delta[chosen * vocab + w] += 1.0;
            }
          }
          // Gibbs conditional: the per-token topic column is short and
          // mostly cache-resident (2 scattered reads per token), but every
          // token commits scattered count updates — the write-heavy
          // signature the paper highlights for lda.
          ctx.charge_cpu_ns(tokens * static_cast<double>(topics) * 3.0);
          ctx.charge_dep_reads(tokens * 2.0);
          ctx.charge_dep_writes(tokens * 12.0);
          // Delta matrices stream out to the reducer.
          ctx.charge_stream_write(Bytes::of(
              8.0 * static_cast<double>(topics) * static_cast<double>(vocab)));
          std::vector<CountMatrix> out;
          out.push_back(std::move(delta));
          return out;
        },
        "gibbsSweep");

    spark::JobMetrics jm;
    CountMatrix folded = reduce(
        deltas,
        [](CountMatrix a, const CountMatrix& b) {
          for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
          return a;
        },
        &jm);
    outcome.jobs.push_back(jm);
    for (std::size_t i = 0; i < folded.size(); ++i)
      (*global)[i] = 0.1 + folded[i];
  }

  // Validation: topics must concentrate — the max-probability word of each
  // topic should be far above the uniform level, and counts must conserve
  // the token total.
  double assigned = 0.0;
  double peak_ratio = 0.0;
  for (int k = 0; k < topics; ++k) {
    double total = 0.0;
    double peak = 0.0;
    for (std::size_t w = 0; w < vocab; ++w) {
      const double v = (*global)[static_cast<std::size_t>(k) * vocab + w] - 0.1;
      total += v;
      peak = std::max(peak, v);
    }
    assigned += total;
    if (total > 0.0)
      peak_ratio = std::max(
          peak_ratio, peak / (total / static_cast<double>(vocab)));
  }
  const double expected_tokens =
      static_cast<double>(sample_docs) * kTokensPerDoc;
  const bool conserved =
      std::abs(assigned - expected_tokens) < 0.01 * expected_tokens;
  outcome.valid = conserved && peak_ratio > 3.0;
  outcome.validation =
      strfmt("tokens=%.0f conserved=%d peak/uniform=%.1f topics=%d", assigned,
             conserved ? 1 : 0, peak_ratio, topics);
  return outcome;
}

}  // namespace tsx::workloads
