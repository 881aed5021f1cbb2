#include "workloads/datagen.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace tsx::workloads {

namespace {
constexpr char kKeyAlphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
constexpr std::size_t kKeyAlphabetSize = sizeof(kKeyAlphabet) - 1;
}  // namespace

void random_line_into(Rng& rng, char* out, std::size_t key_width,
                      std::size_t width) {
  TSX_CHECK(width >= key_width + 1, "line width too small for key");
  // The draws come from a local copy of the generator, stored back at the
  // end: a char store may alias any object, so drawing from `rng` itself
  // would reload and spill its state around every character.
  Rng local = rng;
  for (std::size_t i = 0; i < key_width; ++i)
    out[i] = kKeyAlphabet[local.uniform_u64(kKeyAlphabetSize)];
  out[key_width] = ' ';
  for (std::size_t i = key_width + 1; i < width; ++i)
    out[i] = static_cast<char>('a' + local.uniform_u64(26));
  rng = local;
}

std::string zipf_word(Rng& rng, const ZipfSampler& sampler) {
  return "w" + std::to_string(sampler(rng));
}

std::vector<std::string> random_document(Rng& rng, const ZipfSampler& sampler,
                                         std::size_t tokens) {
  std::vector<std::string> out;
  out.reserve(tokens);
  for (std::size_t i = 0; i < tokens; ++i)
    out.push_back(zipf_word(rng, sampler));
  return out;
}

double est_bytes(const Rating&) { return 12.0; }  // u32 + u32 + f32

std::vector<Rating> random_ratings(Rng& rng, std::size_t count,
                                   std::uint32_t users,
                                   std::uint32_t products) {
  TSX_CHECK(users > 0 && products > 0, "need users and products");
  std::vector<Rating> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rating r;
    r.user = static_cast<std::uint32_t>(rng.uniform_u64(users));
    r.product = static_cast<std::uint32_t>(rng.uniform_u64(products));
    // Ratings follow a latent two-factor structure so ALS has signal.
    const double u_bias = static_cast<double>(r.user % 5) * 0.3;
    const double p_bias = static_cast<double>(r.product % 7) * 0.2;
    r.score = static_cast<float>(
        std::clamp(1.0 + u_bias + p_bias + 0.5 * rng.normal(), 1.0, 5.0));
    out.push_back(r);
  }
  return out;
}

double est_bytes(const LabeledPoint& p) {
  return 8.0 + 4.0 * static_cast<double>(p.features.size());
}

std::vector<LabeledPoint> random_points(Rng& rng, std::size_t count,
                                        std::size_t features) {
  TSX_CHECK(features > 0, "need at least one feature");
  // Sparse ground-truth weights on ~10% of the features, plus a strong
  // anchor on feature 0 so shallow trees with random feature pools have a
  // discoverable signal at every scale.
  std::vector<double> weights(features, 0.0);
  for (std::size_t f = 0; f < features; f += 10)
    weights[f] = rng.normal(0.0, 1.0);
  weights[0] = 3.0;

  std::vector<LabeledPoint> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    LabeledPoint p;
    p.features.resize(features);
    double dot = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      p.features[f] = static_cast<float>(rng.normal());
      dot += weights[f] * p.features[f];
    }
    p.label = dot + 0.3 * rng.normal() > 0.0 ? 1.0f : 0.0f;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<AdjacencyRow> random_graph_rows(Rng& rng, std::uint32_t first_page,
                                            std::uint32_t count,
                                            std::uint32_t total_pages,
                                            const ZipfSampler& target_sampler,
                                            std::size_t mean_degree) {
  TSX_CHECK(total_pages > 0, "graph needs pages");
  std::vector<AdjacencyRow> out;
  out.reserve(count);
  // Sample into reused scratch so each row's final vector is allocated
  // exactly once at its deduplicated size. Same draws, same rows.
  std::vector<std::uint32_t> scratch;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t page = first_page + i;
    const std::uint64_t degree = 1 + rng.poisson(
        static_cast<double>(mean_degree) - 1.0);
    scratch.clear();
    scratch.reserve(degree);
    for (std::uint64_t d = 0; d < degree; ++d) {
      auto target = static_cast<std::uint32_t>(target_sampler(rng) %
                                               total_pages);
      if (target == page) target = (target + 1) % total_pages;
      scratch.push_back(target);
    }
    std::sort(scratch.begin(), scratch.end());
    const auto end = std::unique(scratch.begin(), scratch.end());
    out.emplace_back(page,
                     std::vector<std::uint32_t>(scratch.begin(), end));
  }
  return out;
}

}  // namespace tsx::workloads
