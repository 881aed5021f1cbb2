// Small dense ridge-regression solver used by the ALS workload.
//
// Solves (sum_j f_j f_j^T + ridge I) x = sum_j f_j y_j for one entity's
// rank-R factor, given its observations against the fixed other-side
// factors — the inner kernel of alternating least squares. R is a compile-
// time constant (ALS ranks are single digits), so everything lives on the
// stack and the O(R^3) elimination is trivial.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace tsx::workloads::ml {

template <int Rank>
using Factor = std::array<double, Rank>;

template <int Rank>
using FactorTable = std::vector<Factor<Rank>>;

template <int Rank>
double dot(const Factor<Rank>& a, const Factor<Rank>& b) {
  double out = 0.0;
  for (int i = 0; i < Rank; ++i)
    out += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  return out;
}

/// Solves one entity's rank-R ridge system accumulated from `observations`
/// (pairs of other-side id and rating) against `other`'s factors, by
/// normal equations + Gaussian elimination with partial pivoting.
template <int Rank>
Factor<Rank> solve_ridge(
    const std::vector<std::pair<std::uint32_t, float>>& observations,
    const FactorTable<Rank>& other, double ridge) {
  TSX_CHECK(ridge > 0.0, "ridge must be positive");
  std::array<std::array<double, Rank>, Rank> a{};
  Factor<Rank> b{};
  for (int i = 0; i < Rank; ++i)
    a[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = ridge;
  for (const auto& [other_id, score] : observations) {
    TSX_CHECK(other_id < other.size(), "observation id out of range");
    const Factor<Rank>& f = other[other_id];
    for (int i = 0; i < Rank; ++i) {
      b[static_cast<std::size_t>(i)] +=
          f[static_cast<std::size_t>(i)] * score;
      for (int j = i; j < Rank; ++j)
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            f[static_cast<std::size_t>(i)] * f[static_cast<std::size_t>(j)];
    }
  }
  // The normal matrix is symmetric and f_i * f_j == f_j * f_i exactly, so
  // the lower triangle is a copy of the upper one, bit for bit.
  for (int i = 1; i < Rank; ++i)
    for (int j = 0; j < i; ++j)
      a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          a[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  // Gaussian elimination with partial pivoting.
  for (int col = 0; col < Rank; ++col) {
    int pivot = col;
    for (int row = col + 1; row < Rank; ++row)
      if (std::abs(a[static_cast<std::size_t>(row)][static_cast<std::size_t>(
              col)]) >
          std::abs(a[static_cast<std::size_t>(pivot)][static_cast<std::size_t>(
              col)]))
        pivot = row;
    if (pivot != col) {  // ALS's diagonally dominant systems rarely swap
      std::swap(a[static_cast<std::size_t>(col)],
                a[static_cast<std::size_t>(pivot)]);
      std::swap(b[static_cast<std::size_t>(col)],
                b[static_cast<std::size_t>(pivot)]);
    }
    const double d =
        a[static_cast<std::size_t>(col)][static_cast<std::size_t>(col)];
    for (int row = col + 1; row < Rank; ++row) {
      const double m =
          a[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] / d;
      for (int j = col; j < Rank; ++j)
        a[static_cast<std::size_t>(row)][static_cast<std::size_t>(j)] -=
            m * a[static_cast<std::size_t>(col)][static_cast<std::size_t>(j)];
      b[static_cast<std::size_t>(row)] -= m * b[static_cast<std::size_t>(col)];
    }
  }
  Factor<Rank> x{};
  for (int row = Rank - 1; row >= 0; --row) {
    double s = b[static_cast<std::size_t>(row)];
    for (int j = row + 1; j < Rank; ++j)
      s -= a[static_cast<std::size_t>(row)][static_cast<std::size_t>(j)] *
           x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(row)] =
        s / a[static_cast<std::size_t>(row)][static_cast<std::size_t>(row)];
  }
  return x;
}

}  // namespace tsx::workloads::ml
