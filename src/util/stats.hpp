// stats.hpp — streaming and batch statistics used throughout the
// experiments: Welford running moments, exact quantiles over retained
// samples, EWMA smoothing, and empirical CDFs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace phi::util {

/// Streaming mean/variance via Welford's algorithm. O(1) space.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel-friendly).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains all samples; supports exact quantiles. Use where sample counts
/// are bounded (per-run aggregates), not on per-packet streams.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { xs_.reserve(n); }

  std::size_t count() const noexcept { return xs_.size(); }
  bool empty() const noexcept { return xs_.empty(); }
  double mean() const noexcept;
  double sum() const noexcept;

  /// Exact quantile with linear interpolation; q in [0, 1].
  /// Returns 0 for an empty sample set.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }

  const std::vector<double>& values() const noexcept { return xs_; }
  void clear() noexcept { xs_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Mean/variance with exponential forgetting: each new sample multiplies
/// the weight of all history by `decay` (1.0 = never forget, equivalent
/// to population statistics). The effective window is ~1/(1-decay)
/// samples. Used by continuously-learning baselines that must track
/// drifting signals.
class DecayingStats {
 public:
  explicit DecayingStats(double decay = 1.0) noexcept : decay_(decay) {}

  void add(double x) noexcept {
    w_ = w_ * decay_ + 1.0;
    sx_ = sx_ * decay_ + x;
    sx2_ = sx2_ * decay_ + x * x;
  }

  /// Total retained weight (== sample count when decay is 1).
  double weight() const noexcept { return w_; }
  double mean() const noexcept { return w_ > 0 ? sx_ / w_ : 0.0; }
  double variance() const noexcept {
    if (w_ <= 0) return 0.0;
    const double m = mean();
    const double v = sx2_ / w_ - m * m;
    return v > 0 ? v : 0.0;
  }
  double stddev() const noexcept;

 private:
  double decay_;
  double w_ = 0;
  double sx_ = 0;
  double sx2_ = 0;
};

/// Exponentially weighted moving average. `alpha` is the weight of the new
/// sample (0 < alpha <= 1). Before the first sample, value() is 0 and
/// initialized() is false.
class Ewma {
 public:
  explicit Ewma(double alpha) noexcept : alpha_(alpha) {}

  void add(double x) noexcept {
    if (!init_) {
      value_ = x;
      init_ = true;
    } else {
      value_ += alpha_ * (x - value_);
    }
  }

  /// Reset toward a specific value (used by Remy memory on connection start).
  void reset(double v = 0.0) noexcept {
    value_ = v;
    init_ = false;
  }
  void force(double v) noexcept {
    value_ = v;
    init_ = true;
  }

  double value() const noexcept { return value_; }
  bool initialized() const noexcept { return init_; }
  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool init_ = false;
};

/// Empirical CDF over integer-valued observations (e.g. "number of
/// concurrent flows in a slice"). Used by the §2.1 sharing analysis.
class EmpiricalCdf {
 public:
  void add(std::int64_t x, std::uint64_t weight = 1);

  std::uint64_t total() const noexcept { return total_; }

  /// P[X >= x] — the "share the path with at least x others" number.
  double fraction_at_least(std::int64_t x) const noexcept;

  /// P[X <= x].
  double fraction_at_most(std::int64_t x) const noexcept;

  /// Smallest value v such that P[X <= v] >= q.
  std::int64_t quantile(double q) const noexcept;

  /// Sorted distinct values with cumulative fraction <=, for plotting.
  std::vector<std::pair<std::int64_t, double>> points() const;

 private:
  // kept sorted by key
  std::vector<std::pair<std::int64_t, std::uint64_t>> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace phi::util
