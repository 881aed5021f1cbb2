// Small dense ridge-regression solver used by the ALS workload.
//
// Solves (sum_j f_j f_j^T + ridge I) x = sum_j f_j y_j for one entity's
// rank-R factor, given its observations against the fixed other-side
// factors — the inner kernel of alternating least squares. R is a compile-
// time constant (ALS ranks are single digits), so everything lives on the
// stack and the O(R^3) elimination is trivial.
//
// The elimination is lane-generic: `solve_ridge_lanes<R, L>` solves L
// independent systems side by side, element (i, j) of every lane adjacent in
// memory, so the lanes' latency chains (divisions, pivot searches) overlap.
// Each lane performs exactly the IEEE operations, in exactly the order, of a
// lone solve (DESIGN.md §21), so a lane's answer does not depend on its
// neighbour or on L.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace tsx::workloads::ml {

template <int Rank>
using Factor = std::array<double, Rank>;

template <int Rank>
using FactorTable = std::vector<Factor<Rank>>;

/// One entity's observations: (other-side id, rating) pairs.
using Observations = std::vector<std::pair<std::uint32_t, float>>;

template <int Rank>
double dot(const Factor<Rank>& a, const Factor<Rank>& b) {
  double out = 0.0;
  for (int i = 0; i < Rank; ++i)
    out += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  return out;
}

/// Solves `Lanes` entities' rank-R ridge systems, each accumulated from its
/// observations against `other`'s factors, by normal equations + Gaussian
/// elimination with partial pivoting. Lane l's result is bit-identical to
/// solving `*systems[l]` alone.
template <int Rank, std::size_t Lanes>
std::array<Factor<Rank>, Lanes> solve_ridge_lanes(
    const std::array<const Observations*, Lanes>& systems,
    const FactorTable<Rank>& other, double ridge) {
  constexpr std::size_t R = Rank;
  constexpr std::size_t L = Lanes;
  TSX_CHECK(ridge > 0.0, "ridge must be positive");
  double a[R][R][L] = {};
  double b[R][L] = {};
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t i = 0; i < R; ++i) a[i][i][l] = ridge;
    for (const auto& [other_id, score] : *systems[l]) {
      TSX_CHECK(other_id < other.size(), "observation id out of range");
      const Factor<Rank>& f = other[other_id];
      for (std::size_t i = 0; i < R; ++i) {
        b[i][l] += f[i] * score;
        for (std::size_t j = i; j < R; ++j) a[i][j][l] += f[i] * f[j];
      }
    }
    // The normal matrix is symmetric and f_i * f_j == f_j * f_i exactly,
    // so the lower triangle is a copy of the upper one, bit for bit.
    for (std::size_t i = 1; i < R; ++i)
      for (std::size_t j = 0; j < i; ++j) a[i][j][l] = a[j][i][l];
  }
  // Gaussian elimination with partial pivoting. Entries left of the
  // diagonal are dead once their column is eliminated (no pivot search or
  // back substitution reads them again), so swaps and updates skip them.
  for (std::size_t col = 0; col < R; ++col) {
    std::size_t pivot[L];
    for (std::size_t l = 0; l < L; ++l) {
      double best = std::abs(a[col][col][l]);
      pivot[l] = col;
      for (std::size_t row = col + 1; row < R; ++row) {
        const double v = std::abs(a[row][col][l]);
        const bool larger = v > best;
        best = larger ? v : best;
        pivot[l] = larger ? row : pivot[l];
      }
      // Unconditional (possibly self-) swap: no branch to mispredict.
      for (std::size_t j = col; j < R; ++j)
        std::swap(a[col][j][l], a[pivot[l]][j][l]);
      std::swap(b[col][l], b[pivot[l]][l]);
    }
    for (std::size_t row = col + 1; row < R; ++row) {
      double m[L];
      for (std::size_t l = 0; l < L; ++l)
        m[l] = a[row][col][l] / a[col][col][l];
      for (std::size_t j = col + 1; j < R; ++j)
        for (std::size_t l = 0; l < L; ++l)
          a[row][j][l] -= m[l] * a[col][j][l];
      for (std::size_t l = 0; l < L; ++l) b[row][l] -= m[l] * b[col][l];
    }
  }
  double x[R][L];
  for (std::size_t row = R; row-- > 0;) {
    double s[L];
    for (std::size_t l = 0; l < L; ++l) s[l] = b[row][l];
    for (std::size_t j = row + 1; j < R; ++j)
      for (std::size_t l = 0; l < L; ++l) s[l] -= a[row][j][l] * x[j][l];
    for (std::size_t l = 0; l < L; ++l) x[row][l] = s[l] / a[row][row][l];
  }
  std::array<Factor<Rank>, Lanes> out;
  for (std::size_t l = 0; l < L; ++l)
    for (std::size_t i = 0; i < R; ++i) out[l][i] = x[i][l];
  return out;
}

/// Solves one entity's rank-R ridge system: the one-lane elimination.
template <int Rank>
Factor<Rank> solve_ridge(const Observations& observations,
                         const FactorTable<Rank>& other, double ridge) {
  return solve_ridge_lanes<Rank, 1>({&observations}, other, ridge)[0];
}

/// Solves every (entity id, observations) row in order: adjacent rows share
/// a two-lane elimination and an odd tail takes the one-lane solve.
template <int Rank>
std::vector<std::pair<std::uint32_t, Factor<Rank>>> solve_ridge_rows(
    const std::vector<std::pair<std::uint32_t, Observations>>& rows,
    const FactorTable<Rank>& other, double ridge) {
  std::vector<std::pair<std::uint32_t, Factor<Rank>>> out;
  out.reserve(rows.size());
  std::size_t i = 0;
  for (; i + 1 < rows.size(); i += 2) {
    const auto x = solve_ridge_lanes<Rank, 2>(
        {&rows[i].second, &rows[i + 1].second}, other, ridge);
    out.emplace_back(rows[i].first, x[0]);
    out.emplace_back(rows[i + 1].first, x[1]);
  }
  if (i < rows.size())
    out.emplace_back(rows[i].first,
                     solve_ridge<Rank>(rows[i].second, other, ridge));
  return out;
}

}  // namespace tsx::workloads::ml
