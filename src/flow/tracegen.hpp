// tracegen.hpp — synthetic cloud-egress traffic (substitute for the
// paper's proprietary IPFIX telemetry; see DESIGN.md §5). Flow arrivals
// are Poisson per minute, spread across /24 destination subnets by a Zipf
// popularity law, with bounded-Pareto flow sizes in packets — the standard
// heavy-tailed shape of WAN traffic. The same sampling + collection
// pipeline the paper ran then produces the sharing CDF.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flow/ipfix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace phi::flow {

struct TraceConfig {
  std::size_t subnets = 20000;       ///< distinct /24 destinations
  double zipf_s = 1.05;              ///< subnet popularity skew
  int minutes = 60;                  ///< trace duration
  double flows_per_minute = 120000;  ///< Poisson mean, whole egress
  double pareto_alpha = 1.15;        ///< flow size tail index
  double min_packets = 2;
  double max_packets = 1e6;
  std::uint64_t sampling = 4096;     ///< IPFIX 1-in-N
  std::uint64_t seed = 42;
};

struct SharingAnalysis {
  /// Per *observed* flow: how many other observed flows share its
  /// (/24, minute) slice. This is what the paper reports.
  util::EmpiricalCdf sampled_sharing;
  /// Ground truth (no sampling): the "actual sharing is likely much
  /// higher" claim.
  util::EmpiricalCdf true_sharing;
  std::uint64_t total_flows = 0;
  std::uint64_t observed_flows = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t sampled_packets = 0;
};

/// Generate the trace and push it through the IPFIX pipeline.
SharingAnalysis analyze_trace(const TraceConfig& cfg);

/// One open-loop session: a flow arriving at `at_s` seconds, addressed
/// to popularity rank `rank` (0 = most popular), transferring `bytes`.
struct Session {
  double at_s = 0;
  std::uint32_t rank = 0;
  std::int64_t bytes = 0;
};

/// Open-loop session-trace shape: Poisson arrivals, Zipf rank
/// popularity, bounded-Pareto sizes — the same three generators the
/// IPFIX trace uses, packaged for the churn scenario engine.
struct SessionConfig {
  double arrivals_per_s = 1000;
  double horizon_s = 10;        ///< arrivals strictly before this time
  std::size_t ranks = 16;       ///< Zipf support (e.g. endpoint count)
  double zipf_s = 1.05;
  double pareto_alpha = 1.15;
  double min_bytes = 2920;      ///< two MSS segments
  double max_bytes = 2e6;
  std::uint64_t max_sessions = 0;  ///< 0 = horizon-bounded only
  std::uint64_t seed = 1;          ///< derive via util::derive_seed
};

/// Generate the session trace, calling `fn(const Session&)` once per
/// session in arrival order; nothing is stored. A pure function of the
/// config: equal seeds produce byte-identical traces (draw order is
/// exponential gap, Zipf rank, Pareto size per session — pinned by test).
template <typename Fn>
void for_each_session(const SessionConfig& cfg, Fn&& fn) {
  if (cfg.arrivals_per_s <= 0 || cfg.horizon_s <= 0 || cfg.ranks == 0)
    return;
  util::Rng rng(cfg.seed);
  const util::ZipfSampler zipf(cfg.ranks, cfg.zipf_s);
  const util::BoundedPareto size(cfg.pareto_alpha, cfg.min_bytes,
                                 cfg.max_bytes);
  const double mean_gap_s = 1.0 / cfg.arrivals_per_s;
  std::uint64_t generated = 0;
  double t = 0;
  while (true) {
    t += rng.exponential(mean_gap_s);
    if (t >= cfg.horizon_s) break;
    if (cfg.max_sessions > 0 && generated >= cfg.max_sessions) break;
    Session s;
    s.at_s = t;
    s.rank = static_cast<std::uint32_t>(zipf(rng));
    s.bytes = static_cast<std::int64_t>(size(rng));
    fn(s);
    ++generated;
  }
}

/// Sessions to reserve for before generating `cfg`'s trace: the Poisson
/// mean plus 10% and 16, capped at 4e7 and at max_sessions when set.
std::size_t expected_sessions(const SessionConfig& cfg);

/// The session trace as a vector: for_each_session, collected.
std::vector<Session> generate_sessions(const SessionConfig& cfg);

}  // namespace phi::flow
