// Multinomial naive Bayes model — built at the driver from the ((class,
// word), count) aggregation the bayes workload produces, with Laplace
// smoothing; classification sums log-likelihoods over a document's tokens.
// Words are ranks (see word_id.hpp), so likelihoods live in a dense
// class x rank table.
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
  std::vector<double> log_prior;                  ///< per class
  std::vector<std::vector<double>> log_likelihood;  ///< class x word rank
  std::size_t vocabulary = 0;

  int classes() const { return static_cast<int>(log_prior.size()); }
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

/// Most probable class for a list of word ranks; an equal score keeps the
/// lower class. Throws on a rank outside the model's vocabulary.
int classify(const NaiveBayesModel& model,
             const std::vector<std::uint32_t>& tokens);

}  // namespace tsx::workloads::ml
