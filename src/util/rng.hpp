// rng.hpp — deterministic, seedable random number generation.
//
// Experiments must be exactly reproducible from a seed, so we avoid
// std::mt19937 + std::*_distribution (whose outputs differ across standard
// library implementations) and ship our own xoshiro256++ generator with
// explicit distribution implementations.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace phi::util {

/// splitmix64 — used to expand a single 64-bit seed into generator state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Seed for sub-stream `stream` of `base`: the (stream+1)-th output of
/// splitmix64 seeded with `base` (the generator's state advances by a
/// fixed gamma per step, so stream k is reachable in O(1)). Use this —
/// never `base + k` — wherever one experiment seed fans out into
/// repetitions or per-task streams: consecutive raw seeds feed highly
/// correlated xoshiro initial states, and ad-hoc arithmetic ties the
/// stream a task sees to loop structure, which parallel execution or
/// loop reordering would silently change.
constexpr std::uint64_t derive_seed(std::uint64_t base,
                                    std::uint64_t stream) noexcept {
  std::uint64_t state = base + stream * 0x9E3779B97F4A7C15ULL;
  return splitmix64(state);
}

/// xoshiro256++ 1.0 (Blackman & Vigna) — fast, high-quality, 2^256-1 period.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by iterating splitmix64 over `seed`.
  explicit Rng(std::uint64_t seed = 0x5EED5EED5EED5EEDULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Exponential with the given mean (mean = 1/lambda). mean must be > 0.
  double exponential(double mean) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small mean,
  /// PTRS-style rejection is unnecessary at our scales; we cap work).
  std::uint64_t poisson(double mean) noexcept;

  /// Standard normal via Box-Muller (no cached spare — keeps state minimal).
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Lognormal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Bounded Pareto on [lo, hi] with shape alpha (heavy-tailed sizes).
  double bounded_pareto(double alpha, double lo, double hi) noexcept;

  /// True with probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[below(i)]);
    }
  }

  /// Derive an independent child generator (for per-entity streams).
  Rng fork() noexcept { return Rng{(*this)()}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Zipf(s) sampler over ranks {0, ..., n-1} using precomputed inverse-CDF
/// table; rank 0 is the most popular item. Used by the synthetic egress
/// trace generator to spread flows across /24 subnets.
class ZipfSampler {
 public:
  /// n must be >= 1; s >= 0 (s == 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  std::size_t operator()(Rng& rng) const noexcept;

  std::size_t size() const noexcept { return cdf_.size(); }

  /// Probability mass of rank k.
  double pmf(std::size_t k) const noexcept;

 private:
  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1.0
};

/// Bounded Pareto on [lo, hi] with shape alpha, by inverse transform from
/// one uniform draw. lo^alpha, hi^alpha and -1/alpha are fixed per
/// sampler, so a trace generator pays for them once instead of per draw.
class BoundedPareto {
 public:
  /// alpha > 0, 0 < lo < hi.
  BoundedPareto(double alpha, double lo, double hi) noexcept;

  double operator()(Rng& rng) const noexcept;

 private:
  double la_;             // lo^alpha
  double ha_;             // hi^alpha
  double neg_inv_alpha_;  // -1/alpha
};

}  // namespace phi::util
