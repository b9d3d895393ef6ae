#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace phi::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double DecayingStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Samples::mean() const noexcept {
  if (xs_.empty()) return 0.0;
  return sum() / static_cast<double>(xs_.size());
}

double Samples::sum() const noexcept {
  double s = 0.0;
  for (double x : xs_) s += x;
  return s;
}

double Samples::quantile(double q) const {
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs_.size()) return xs_.back();
  return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

void EmpiricalCdf::add(std::int64_t x, std::uint64_t weight) {
  auto it = std::lower_bound(
      counts_.begin(), counts_.end(), x,
      [](const auto& p, std::int64_t v) { return p.first < v; });
  if (it != counts_.end() && it->first == x) {
    it->second += weight;
  } else {
    counts_.insert(it, {x, weight});
  }
  total_ += weight;
}

double EmpiricalCdf::fraction_at_least(std::int64_t x) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (auto it = counts_.rbegin(); it != counts_.rend() && it->first >= x; ++it)
    acc += it->second;
  return static_cast<double>(acc) / static_cast<double>(total_);
}

double EmpiricalCdf::fraction_at_most(std::int64_t x) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (const auto& [v, c] : counts_) {
    if (v > x) break;
    acc += c;
  }
  return static_cast<double>(acc) / static_cast<double>(total_);
}

std::int64_t EmpiricalCdf::quantile(double q) const noexcept {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  std::uint64_t acc = 0;
  for (const auto& [v, c] : counts_) {
    acc += c;
    if (static_cast<double>(acc) >= target) return v;
  }
  return counts_.back().first;
}

std::vector<std::pair<std::int64_t, double>> EmpiricalCdf::points() const {
  std::vector<std::pair<std::int64_t, double>> out;
  out.reserve(counts_.size());
  std::uint64_t acc = 0;
  for (const auto& [v, c] : counts_) {
    acc += c;
    out.emplace_back(v, static_cast<double>(acc) / static_cast<double>(total_));
  }
  return out;
}

}  // namespace phi::util
