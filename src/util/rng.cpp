#include "util/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace phi::util {

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double mean) noexcept {
  assert(mean > 0.0);
  // uniform() is in [0,1); 1-u is in (0,1] so log() is finite.
  return -mean * std::log(1.0 - uniform());
}

std::uint64_t Rng::poisson(double mean) noexcept {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::uint64_t k = 0;
    while (prod > limit) {
      ++k;
      prod *= uniform();
    }
    return k;
  }
  // Normal approximation, adequate for large means in workload generation.
  const double v = normal(mean, std::sqrt(mean));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
}

double Rng::normal(double mean, double stddev) noexcept {
  // Box-Muller; u1 in (0,1] to keep log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::bounded_pareto(double alpha, double lo, double hi) noexcept {
  return BoundedPareto(alpha, lo, hi)(*this);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  assert(n >= 1);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated FP error
}

std::size_t ZipfSampler::operator()(Rng& rng) const noexcept {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t k) const noexcept {
  assert(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

BoundedPareto::BoundedPareto(double alpha, double lo, double hi) noexcept
    : la_(std::pow(lo, alpha)),
      ha_(std::pow(hi, alpha)),
      neg_inv_alpha_(-1.0 / alpha) {
  assert(alpha > 0.0 && lo > 0.0 && hi > lo);
}

double BoundedPareto::operator()(Rng& rng) const noexcept {
  const double u = rng.uniform();
  return std::pow(-(u * ha_ - u * la_ - ha_) / (ha_ * la_), neg_inv_alpha_);
}

}  // namespace phi::util
