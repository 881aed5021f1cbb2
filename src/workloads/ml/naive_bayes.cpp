#include "workloads/ml/naive_bayes.hpp"

#include <cmath>

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

  model.log_likelihood.resize(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    model.log_likelihood[static_cast<std::size_t>(c)].assign(
        vocabulary,
        std::log(1.0 / (class_tokens[static_cast<std::size_t>(c)] +
                        static_cast<double>(vocabulary))));
  }
  for (const auto& [key, n] : class_word_counts) {
    const auto cls = static_cast<std::size_t>(key.first);
    model.log_likelihood[cls][key.second.rank] =
        std::log((static_cast<double>(n) + 1.0) /
                 (class_tokens[cls] + static_cast<double>(vocabulary)));
  }
  return model;
}

int classify(const NaiveBayesModel& model,
             const std::vector<std::uint32_t>& tokens) {
  for (const std::uint32_t t : tokens)
    TSX_CHECK(t < model.vocabulary, "word rank exceeds vocabulary");
  int best = 0;
  double best_score = -1e300;
  for (int c = 0; c < model.classes(); ++c) {
    double score = model.log_prior[static_cast<std::size_t>(c)];
    const auto& row = model.log_likelihood[static_cast<std::size_t>(c)];
    for (const std::uint32_t t : tokens) score += row[t];
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

}  // namespace tsx::workloads::ml
