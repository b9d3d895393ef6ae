#include "phi/churn.hpp"

#include <algorithm>

namespace phi::core {

namespace {

/// Nearest-rank percentile over a sorted sample.
double pct(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

ChurnMetrics aggregate_churn(
    const std::vector<std::unique_ptr<ChurnSlot>>& slots,
    const std::vector<util::Time>& arrivals,
    const std::vector<double>& fct_s, const std::vector<double>& wait_s,
    util::Time measure_from, double duration_s) {
  ChurnMetrics m;
  m.enabled = true;
  m.offered = arrivals.size();

  tcp::ConnTotals measured;
  for (const auto& slot : slots) {
    m.started += slot->started();
    m.completed += slot->completed();
    measured.merge(slot->measured());
  }
  m.mean_rtt_s = measured.rtt.mean();
  m.goodput_bps = duration_s > 0 ? measured.bits / duration_s : 0.0;
  m.retransmits = measured.retransmits;
  m.timeouts = measured.timeouts;

  std::vector<double> fct;
  fct.reserve(arrivals.size());
  double fct_sum = 0, wait_sum = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i] < measure_from || fct_s[i] < 0) continue;
    fct.push_back(fct_s[i]);
    fct_sum += fct_s[i];
    if (wait_s[i] > 0) {
      wait_sum += wait_s[i];
      ++m.deferred;
    }
  }
  m.measured = fct.size();
  if (!fct.empty()) {
    std::sort(fct.begin(), fct.end());
    m.fct_p50_s = pct(fct, 50);
    m.fct_p90_s = pct(fct, 90);
    m.fct_p99_s = pct(fct, 99);
    m.fct_mean_s = fct_sum / static_cast<double>(fct.size());
    m.wait_mean_s = wait_sum / static_cast<double>(fct.size());
  }
  return m;
}

}  // namespace phi::core
