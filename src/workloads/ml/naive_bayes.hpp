// Multinomial naive Bayes model — built at the driver from the ((class,
// word), count) aggregation the bayes workload produces, with Laplace
// smoothing; classification sums log-likelihoods over a document's tokens.
// Words are ranks (see word_id.hpp), so likelihoods live in a dense
// rank x class table, word-major: a token's likelihoods under every class
// are one contiguous row.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "workloads/ml/word_id.hpp"

namespace tsx::workloads::ml {

/// A labeled document: its class and its word ranks in document order.
struct Page {
  int label = 0;
  std::vector<std::uint32_t> tokens;
};

/// Sizer hook (ADL): the label plus each word as its canonical string.
inline double est_bytes(const Page& p) {
  double b = 4.0;
  for (const std::uint32_t t : p.tokens) b += est_bytes(WordId{t});
  return b;
}

struct NaiveBayesModel {
  std::vector<double> log_prior;       ///< per class
  std::vector<double> log_likelihood;  ///< rank x class, row-major
  std::size_t vocabulary = 0;

  int classes() const { return static_cast<int>(log_prior.size()); }

  double likelihood(int cls, std::uint32_t rank) const {
    return log_likelihood[rank * log_prior.size() +
                          static_cast<std::size_t>(cls)];
  }
};

/// Builds the model from aggregated ((class, word), count) pairs and per-
/// class document counts. `documents` is the training-set size (for the
/// priors); `vocabulary` the rank space. Throws on a class or rank out of
/// range.
NaiveBayesModel build_naive_bayes(
    const std::vector<std::pair<std::pair<int, WordId>, std::uint64_t>>&
        class_word_counts,
    const std::vector<std::pair<int, std::uint64_t>>& class_doc_counts,
    int classes, std::size_t documents, std::size_t vocabulary);

/// Per-class log score of a list of word ranks: the class's log prior plus
/// its token likelihoods, added in document order. Throws on a rank outside
/// the model's vocabulary.
std::vector<double> log_scores(const NaiveBayesModel& model,
                               const std::vector<std::uint32_t>& tokens);

/// Most probable class for a list of word ranks (the argmax of
/// log_scores); an equal score keeps the lower class.
int classify(const NaiveBayesModel& model,
             const std::vector<std::uint32_t>& tokens);

}  // namespace tsx::workloads::ml
