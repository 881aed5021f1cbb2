// Interned words. The modeled record is the string "w<rank>" (the
// generators' word convention); the host carries only the rank. Everything
// the engine observes of a word — its estimated size, its partitioning hash
// and its sort order — is the canonical string's, so carrying a u32 instead
// of the string moves no simulated byte (DESIGN.md §17).
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "spark/pair_rdd.hpp"

namespace tsx::workloads::ml {

/// Canonical spelling of a word rank.
inline std::string word_string(std::uint32_t rank) {
  return "w" + std::to_string(rank);
}

/// Decimal digits of `rank` (the length of its spelling minus the 'w').
inline int word_digits(std::uint32_t rank) {
  int digits = 1;
  for (std::uint32_t r = rank; r >= 10; r /= 10) ++digits;
  return digits;
}

/// Ranks covered by the word tables below (bayes's vocabulary is 8000).
inline constexpr std::uint32_t kWordTableRanks = 1u << 13;

/// std::hash of the canonical spelling. Ranks below the table size read a
/// table built on first use (thread-safe static initialization); larger
/// ranks hash the spelled string.
inline std::size_t word_hash(std::uint32_t rank) {
  static const std::array<std::size_t, kWordTableRanks> table = [] {
    std::array<std::size_t, kWordTableRanks> t{};
    for (std::uint32_t r = 0; r < kWordTableRanks; ++r)
      t[r] = std::hash<std::string>{}(word_string(r));
    return t;
  }();
  return rank < kWordTableRanks ? table[rank]
                                : std::hash<std::string>{}(word_string(rank));
}

/// Position of "w<rank>" among the spellings of ranks [0, kWordTableRanks)
/// in string order, read from a table built on first use like
/// `word_hash`'s. Only meaningful for ranks below the table size.
inline std::uint16_t word_order_position(std::uint32_t rank) {
  static const std::array<std::uint16_t, kWordTableRanks> table = [] {
    std::array<std::uint32_t, kWordTableRanks> by_spelling{};
    for (std::uint32_t r = 0; r < kWordTableRanks; ++r) by_spelling[r] = r;
    std::sort(by_spelling.begin(), by_spelling.end(),
              [](std::uint32_t a, std::uint32_t b) {
                return word_string(a) < word_string(b);
              });
    std::array<std::uint16_t, kWordTableRanks> t{};
    for (std::uint32_t i = 0; i < kWordTableRanks; ++i)
      t[by_spelling[i]] = static_cast<std::uint16_t>(i);
    return t;
  }();
  return table[rank];
}

struct WordId {
  std::uint32_t rank = 0;

  friend bool operator==(WordId a, WordId b) { return a.rank == b.rank; }

  /// Lexicographic order of the canonical spellings. Two ranks below the
  /// table size compare their precomputed positions. Otherwise the shorter
  /// spelling is padded with zeros to the longer one's length and compared
  /// as a number; a tie means it is a prefix of the other, so it sorts
  /// first.
  friend std::strong_ordering operator<=>(WordId a, WordId b) {
    if (a.rank < kWordTableRanks && b.rank < kWordTableRanks)
      return word_order_position(a.rank) <=> word_order_position(b.rank);
    std::uint64_t x = a.rank;
    std::uint64_t y = b.rank;
    const int dx = word_digits(a.rank);
    const int dy = word_digits(b.rank);
    for (int d = dx; d < dy; ++d) x *= 10;
    for (int d = dy; d < dx; ++d) y *= 10;
    if (x != y) return x <=> y;
    return dx <=> dy;
  }
};

/// Sizer hook (ADL): the canonical string's length header plus payload.
inline double est_bytes(WordId w) {
  return 8.0 + static_cast<double>(1 + word_digits(w.rank));
}

}  // namespace tsx::workloads::ml

template <>
struct tsx::spark::TsxHash<tsx::workloads::ml::WordId> {
  std::size_t operator()(tsx::workloads::ml::WordId w) const {
    return tsx::workloads::ml::word_hash(w.rank);
  }
};
