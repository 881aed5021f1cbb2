#include "workloads/ml/naive_bayes.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/error.hpp"

namespace tsx::workloads::ml {

NaiveBayesModel build_naive_bayes(
    const std::vector<std::pair<std::pair<int, WordId>, std::uint64_t>>&
        class_word_counts,
    const std::vector<std::pair<int, std::uint64_t>>& class_doc_counts,
    int classes, std::size_t documents, std::size_t vocabulary) {
  TSX_CHECK(classes > 0 && documents > 0 && vocabulary > 0,
            "degenerate naive Bayes dimensions");
  NaiveBayesModel model;
  model.vocabulary = vocabulary;
  model.log_prior.assign(static_cast<std::size_t>(classes), std::log(1e-9));
  for (const auto& [cls, n] : class_doc_counts) {
    TSX_CHECK(cls >= 0 && cls < classes, "class out of range");
    model.log_prior[static_cast<std::size_t>(cls)] =
        std::log(static_cast<double>(n) / static_cast<double>(documents));
  }

  std::vector<double> class_tokens(static_cast<std::size_t>(classes), 0.0);
  for (const auto& [key, n] : class_word_counts) {
    TSX_CHECK(key.first >= 0 && key.first < classes, "class out of range");
    TSX_CHECK(key.second.rank < vocabulary, "word rank exceeds vocabulary");
    class_tokens[static_cast<std::size_t>(key.first)] +=
        static_cast<double>(n);
  }

  const auto n_classes = static_cast<std::size_t>(classes);
  std::vector<double> unseen(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c)
    unseen[c] = std::log(
        1.0 / (class_tokens[c] + static_cast<double>(vocabulary)));
  model.log_likelihood.resize(vocabulary * n_classes);
  for (std::size_t r = 0; r < vocabulary; ++r)
    std::copy(unseen.begin(), unseen.end(),
              model.log_likelihood.begin() +
                  static_cast<std::ptrdiff_t>(r * n_classes));
  for (const auto& [key, n] : class_word_counts) {
    const auto cls = static_cast<std::size_t>(key.first);
    model.log_likelihood[key.second.rank * n_classes + cls] =
        std::log((static_cast<double>(n) + 1.0) /
                 (class_tokens[cls] + static_cast<double>(vocabulary)));
  }
  return model;
}

namespace {

// scores[c] += row[c] for every class. Unrolled by four so that -O2's
// vectorizer, which emits no remainder loop of its own, packs the adds;
// each lane is still one IEEE add of the same two operands. Kept out of
// line: inlined into log_scores, GCC 12 leaves the loop scalar.
[[gnu::noinline]] void add_row(double* __restrict scores,
                               const double* __restrict row, std::size_t n) {
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    scores[c] += row[c];
    scores[c + 1] += row[c + 1];
    scores[c + 2] += row[c + 2];
    scores[c + 3] += row[c + 3];
  }
  for (; c < n; ++c) scores[c] += row[c];
}

}  // namespace

std::vector<double> log_scores(const NaiveBayesModel& model,
                               const std::vector<std::uint32_t>& tokens) {
  // Word-major: each token adds one contiguous row to every class's score,
  // so per class the additions run in the same order as a class-at-a-time
  // loop would make them.
  const std::size_t n_classes = model.log_prior.size();
  std::vector<double> scores(model.log_prior);
  for (const std::uint32_t t : tokens) {
    TSX_CHECK(t < model.vocabulary, "word rank exceeds vocabulary");
    add_row(scores.data(), &model.log_likelihood[t * n_classes], n_classes);
  }
  return scores;
}

int classify(const NaiveBayesModel& model,
             const std::vector<std::uint32_t>& tokens) {
  const std::vector<double> scores = log_scores(model, tokens);
  int best = 0;
  double best_score = -1e300;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    if (scores[c] > best_score) {
      best_score = scores[c];
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace tsx::workloads::ml
