#include "phi/churn.hpp"

#include <algorithm>
#include <stdexcept>

namespace phi::core {

namespace {

/// Nearest-rank percentile over rows sorted by FCT.
double pct(std::span<const ChurnSessions::Row> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx].fct_s;
}

}  // namespace

void ChurnSessions::reserve(const flow::SessionConfig& cfg) {
  // The Poisson mean stands in for the count; a trace that overshoots it
  // past kEnd is caught by append().
  double expected = cfg.arrivals_per_s * cfg.horizon_s;
  if (cfg.max_sessions > 0)
    expected = std::min(expected, static_cast<double>(cfg.max_sessions));
  if (!(expected < kEnd))
    throw std::invalid_argument(
        "churn: arrivals_per_s x horizon exceeds the session table's "
        "2^32-1 rows (cap the trace with max_sessions)");
  if (!(cfg.pareto_alpha > 0 && 0 < cfg.min_bytes &&
        cfg.min_bytes < cfg.max_bytes))
    throw std::invalid_argument(
        "churn: flow sizes need pareto_alpha > 0 and 0 < min_bytes < "
        "max_bytes");
  if (!(cfg.max_bytes <= kMaxBytes))
    throw std::invalid_argument(
        "churn: max_bytes exceeds a session row's 2^31-1 segments "
        "(about 3.1 TB)");
  rows_.reserve(flow::expected_sessions(cfg));
}

std::uint32_t ChurnSessions::append(const flow::Session& s,
                                    std::uint32_t prev) {
  if (rows_.size() >= kEnd)
    throw std::invalid_argument(
        "churn: the trace outgrew the session table's 2^32-1 rows");
  if (!(static_cast<double>(s.bytes) <= kMaxBytes))
    throw std::invalid_argument(
        "churn: a session exceeds a row's 2^31-1 segments");
  Row r;
  r.at = util::from_seconds(s.at_s);
  r.segments = static_cast<std::int32_t>(std::max<std::int64_t>(
      1, (s.bytes + sim::kDefaultMss - 1) / sim::kDefaultMss));
  const auto i = static_cast<std::uint32_t>(rows_.size());
  rows_.push_back(r);
  if (prev != kEnd) rows_[prev].next = i;
  return i;
}

ChurnMetrics aggregate_churn(
    const std::vector<std::unique_ptr<ChurnSlot>>& slots,
    ChurnSessions& sessions, util::Time measure_from, double duration_s) {
  ChurnMetrics m;
  m.enabled = true;
  const std::span<ChurnSessions::Row> rows = sessions.rows();
  m.offered = rows.size();

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

  // Sum in row order, and move each measured FCT down into the front
  // rows (never past the row being read).
  std::size_t n = 0;
  double fct_sum = 0, wait_sum = 0;
  for (const ChurnSessions::Row& r : rows) {
    if (r.at < measure_from || r.fct_s < 0) continue;
    fct_sum += r.fct_s;
    if (r.wait_s > 0) {
      wait_sum += r.wait_s;
      ++m.deferred;
    }
    rows[n++].fct_s = r.fct_s;
  }
  m.measured = n;
  if (n > 0) {
    const std::span<ChurnSessions::Row> fct = rows.first(n);
    std::ranges::sort(fct, {}, &ChurnSessions::Row::fct_s);
    m.fct_p50_s = pct(fct, 50);
    m.fct_p90_s = pct(fct, 90);
    m.fct_p99_s = pct(fct, 99);
    m.fct_mean_s = fct_sum / static_cast<double>(n);
    m.wait_mean_s = wait_sum / static_cast<double>(n);
  }
  return m;
}

}  // namespace phi::core
