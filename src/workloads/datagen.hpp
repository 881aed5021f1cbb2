// HiBench-style data generators.
//
// All generators are pure functions of (parameters, Rng), so a partition's
// data is identical every time it is regenerated — the property the lazy
// RDD sources rely on. Word and page popularity follow Zipf distributions,
// as in HiBench's RandomTextWriter/PagerankData.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace tsx::workloads {

/// Writes one `width`-byte text line to `out`: a sortable random key of
/// `key_width` characters, a space, and lowercase filler.
void random_line_into(Rng& rng, char* out, std::size_t key_width,
                      std::size_t width);

/// Word "w<k>" with Zipf-distributed k < vocabulary.
std::string zipf_word(Rng& rng, const ZipfSampler& sampler);

/// A document of `tokens` Zipf-distributed words.
std::vector<std::string> random_document(Rng& rng, const ZipfSampler& sampler,
                                         std::size_t tokens);

/// Rating triple for ALS.
struct Rating {
  std::uint32_t user = 0;
  std::uint32_t product = 0;
  float score = 0.0f;
};
double est_bytes(const Rating&);  // ADL hook for the Spark sizer

/// N bytes of text held inline: the host form of a fixed-width string
/// record (DESIGN.md §17). It is what a `std::string` of length N is to the
/// engine: the same size charge and the same order, with no heap buffer.
/// It has no hash, so it cannot key a hash partitioner.
template <std::size_t N>
struct FixedText {
  std::array<char, N> bytes;

  /// The N bytes at `src`.
  static FixedText of(const char* src) {
    FixedText t;
    std::memcpy(t.bytes.data(), src, N);
    return t;
  }
  char* data() { return bytes.data(); }
  const char* data() const { return bytes.data(); }
  std::string_view view() const { return {bytes.data(), N}; }

  // memcmp compares unsigned bytes, as std::string does; a defaulted <=> on
  // std::array<char, N> would compare signed chars.
  friend bool operator<(const FixedText& a, const FixedText& b) {
    return std::memcmp(a.bytes.data(), b.bytes.data(), N) < 0;
  }
  friend bool operator>(const FixedText& a, const FixedText& b) {
    return b < a;
  }
};

/// 8 + N: what the sizer charges a std::string of length N.
template <std::size_t N>
double est_bytes(const FixedText<N>&) {
  return 8.0 + static_cast<double>(N);
}

std::vector<Rating> random_ratings(Rng& rng, std::size_t count,
                                   std::uint32_t users,
                                   std::uint32_t products);

/// Labeled feature vector for the classifier workloads. Labels come from a
/// sparse linear ground-truth model plus noise, so learners have signal.
struct LabeledPoint {
  float label = 0.0f;
  std::vector<float> features;
};
double est_bytes(const LabeledPoint&);

std::vector<LabeledPoint> random_points(Rng& rng, std::size_t count,
                                        std::size_t features);

/// Adjacency row of a web graph: page -> out-links. Link targets are
/// Zipf-distributed (popular pages attract links), in-degree skew included.
using AdjacencyRow = std::pair<std::uint32_t, std::vector<std::uint32_t>>;

std::vector<AdjacencyRow> random_graph_rows(Rng& rng, std::uint32_t first_page,
                                            std::uint32_t count,
                                            std::uint32_t total_pages,
                                            const ZipfSampler& target_sampler,
                                            std::size_t mean_degree = 8);

}  // namespace tsx::workloads
