#include "core/rng.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace tsx {

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller: two uniforms to two independent standard normals.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();  // avoid log(0)
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::exponential(double rate) {
  TSX_CHECK(rate > 0.0, "exponential rate must be positive");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

std::uint64_t Rng::poisson(double mean) {
  TSX_CHECK(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction.
    const double draw = normal(mean, std::sqrt(mean));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
  }
  // Knuth inversion.
  const double limit = std::exp(-mean);
  double product = uniform();
  std::uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= uniform();
  }
  return count;
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  TSX_CHECK(n > 0, "zipf needs n > 0");
  if (s <= 0.0) return uniform_u64(n);
  // Rejection sampler over the continuous envelope of the Zipf pmf
  // (Devroye). Exact in distribution for integer ranks.
  const double sm1 = 1.0 - s;
  auto h = [&](double x) {
    return sm1 == 0.0 ? std::log(x) : (std::pow(x, sm1) - 1.0) / sm1;
  };
  auto h_inv = [&](double y) {
    return sm1 == 0.0 ? std::exp(y) : std::pow(1.0 + sm1 * y, 1.0 / sm1);
  };
  const double hx0 = h(0.5) - 1.0;
  const double hn = h(static_cast<double>(n) + 0.5);
  for (;;) {
    const double u = hx0 + uniform() * (hn - hx0);
    const double x = h_inv(u);
    const auto k = static_cast<std::uint64_t>(
        std::clamp(x + 0.5, 1.0, static_cast<double>(n)));
    const double kd = static_cast<double>(k);
    if (u >= h(kd + 0.5) - std::pow(kd, -s)) return k - 1;
  }
}

ZipfSampler::ZipfSampler(std::uint64_t n, double exponent) {
  TSX_CHECK(n > 0, "ZipfSampler needs n > 0");
  TSX_CHECK(n <= (std::uint64_t{1} << 32),
            "ZipfSampler n=" + std::to_string(n) +
                " exceeds 2^32, the range of its u32 guide table");
  TSX_CHECK(exponent >= 0.0, "ZipfSampler exponent must be >= 0");
  cdf_.resize(n);
  double total = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -exponent);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding

  std::uint64_t m = 1;
  while (m < n) m <<= 1;
  buckets_ = static_cast<double>(m);
  guide_.resize(m);
  const double inv_m = 1.0 / buckets_;  // a power of two: j * inv_m is exact
  std::uint32_t i = 0;
  for (std::uint64_t j = 0; j < m; ++j) {
    const double edge = static_cast<double>(j) * inv_m;
    while (cdf_[i] < edge) ++i;  // edge < 1.0 == cdf_.back()
    guide_[j] = i;
  }
}

}  // namespace tsx
