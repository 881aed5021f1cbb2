// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulator (data generators, event noise,
// synthesized hardware counters) draws from tsx::Rng so that a run is fully
// reproducible from a single 64-bit seed. The generator is xoshiro256**,
// seeded through SplitMix64 as its authors recommend; it is small, fast and
// has no measurable bias for the distributions used here.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/error.hpp"

namespace tsx {

/// SplitMix64 step — used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent stream for a child component (jump-free: mixes
  /// the tag into a fresh seed, which is sufficient at our stream counts).
  Rng fork(std::uint64_t tag) const {
    std::uint64_t sm = state_[0] ^ (tag * 0x9e3779b97f4a7c15ULL);
    return Rng(splitmix64(sm));
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_u64(std::uint64_t n) {
    TSX_CHECK(n > 0, "uniform_u64 needs n > 0");
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    TSX_CHECK(lo <= hi, "uniform_int needs lo <= hi");
    return lo + static_cast<std::int64_t>(
                    uniform_u64(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box–Muller (cached second variate).
  double normal();
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Poisson-distributed count with the given mean (inversion for small
  /// means, normal approximation above 64).
  std::uint64_t poisson(double mean);

  /// Zipf-distributed rank in [0, n) with exponent s (s=0 → uniform).
  /// Table-free: a rejection sampler over the continuous envelope of the
  /// pmf (Devroye), exact in distribution and O(1) expected draws per call.
  /// For many draws over one n, ZipfSampler's O(n) table pays for itself;
  /// the two consume the stream differently, so they are not interchangeable
  /// draw for draw.
  std::uint64_t zipf(std::uint64_t n, double s);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Reusable Zipf sampler with precomputed cumulative weights, exact for any
/// exponent >= 0. A draw inverts the CDF at one uniform u, and a guide
/// table (Chen & Asau) makes that O(1) expected: with m the next power of
/// two >= n, bucket j holds the first rank whose CDF reaches j/m, so a draw
/// starts at bucket floor(u*m) and steps forward. m is a power of two, so
/// u*m and j/m are exact and the result equals a binary search over the CDF
/// for every u. Guide entries are u32, so n may not exceed 2^32.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double exponent);

  std::uint64_t operator()(Rng& rng) const { return rank_at(rng.uniform()); }

  /// The rank a uniform draw u in [0, 1) maps to: the first rank whose
  /// cumulative weight is >= u.
  std::uint64_t rank_at(double u) const {
    std::uint32_t i = guide_[static_cast<std::size_t>(u * buckets_)];
    while (cdf_[i] < u) ++i;  // cdf_.back() == 1.0 > u stops the walk
    return i;
  }

  std::uint64_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;           // normalized cumulative weights
  std::vector<std::uint32_t> guide_;  // bucket j -> first rank with cdf >= j/m
  double buckets_ = 0.0;              // m, a power of two
};

}  // namespace tsx
