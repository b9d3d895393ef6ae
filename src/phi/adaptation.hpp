// adaptation.hpp — §3.2: benefits of sharing *without* coordination.
// When most senders don't cooperate, FIFO queueing means the congestion
// state won't improve — but a minority that shares information can still
// do informed adaptation. The paper's two examples, realized here:
//
//  * jitter-buffer sizing for A/V streaming, initialized from the shared
//    delay-variation distribution of a path instead of a cold start;
//  * the TCP fast-retransmit duplicate-ACK threshold, raised when shared
//    experience says packet reordering is prevalent on a path.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "phi/context.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace phi::core {

/// Aggregates shared delay-variation observations per path and recommends
/// an initial jitter-buffer depth.
class JitterBufferAdvisor {
 public:
  struct Config {
    double quantile = 0.98;   ///< cover this fraction of jitter samples
    double safety = 1.25;     ///< headroom multiplier
    double min_ms = 10.0;     ///< floor (codec frame granularity)
    double max_ms = 400.0;    ///< ceiling (interactivity budget)
    std::size_t min_support = 20;  ///< samples before trusting the data
  };

  JitterBufferAdvisor() = default;
  explicit JitterBufferAdvisor(Config cfg) : cfg_(cfg) {}

  /// Record one observed jitter sample (absolute inter-packet delay
  /// variation, milliseconds) on `path`.
  void record_jitter_ms(PathKey path, double jitter_ms);

  /// Recommended initial jitter-buffer depth for a new stream on `path`.
  /// Falls back to `fallback_ms` until enough shared samples exist.
  double recommend_ms(PathKey path, double fallback_ms = 60.0) const;

  std::size_t support(PathKey path) const;

 private:
  Config cfg_;
  std::unordered_map<PathKey, util::Samples> jitter_;
};

/// Aggregates shared reordering experience per path and recommends a
/// duplicate-ACK threshold for fast retransmit.
class DupAckThresholdAdvisor {
 public:
  struct Config {
    /// Reordering prevalence (fraction of connections with spurious
    /// retransmissions) above which the threshold is raised.
    double raise_at = 0.05;
    double raise_more_at = 0.20;
    int base_threshold = 3;
    std::size_t min_support = 20;
  };

  DupAckThresholdAdvisor() = default;
  explicit DupAckThresholdAdvisor(Config cfg) : cfg_(cfg) {}

  /// Record one connection's experience: did it observe spurious
  /// retransmissions (duplicate segments delivered — the receiver-side
  /// signature of reordering-induced false fast retransmits)?
  /// The trailing parameters are telemetry metadata: when `at >= 0` the
  /// advisor emits an instant, which lands on the connection's flow
  /// trace when `trace != 0`, so a trace shows shared experience
  /// flowing in.
  void record_connection(PathKey path, bool saw_spurious_retransmit,
                         util::Time at = -1, std::uint32_t trace = 0);

  /// Observed reordering prevalence on `path` in [0, 1].
  double prevalence(PathKey path) const;

  /// Recommended dup-ACK threshold for new connections on `path`. Same
  /// optional telemetry metadata as record_connection: the instant
  /// carries the threshold actually recommended.
  int recommend(PathKey path, util::Time at = -1,
                std::uint32_t trace = 0) const;

  std::size_t support(PathKey path) const;

 private:
  struct Counts {
    std::uint64_t total = 0;
    std::uint64_t reordered = 0;
  };
  Config cfg_;
  std::unordered_map<PathKey, Counts> counts_;
};

}  // namespace phi::core
