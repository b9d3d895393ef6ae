// context_server.hpp — the repository of shared state at the heart of Phi
// (§2.2.2). Senders look it up once when a connection starts and report
// back once when it ends; from those minimal signals the server estimates
// the congestion context:
//
//   u — bottleneck utilization, from "when and how much data" reports
//       (bytes delivered within a sliding window vs. path capacity),
//   n — competing senders, from the set of currently-open connections,
//   q — queue occupancy, from the spread between reported RTTs and the
//       path's minimum RTT (as in Remy),
//
// plus a loss proxy from reported retransmit rates. When a recommendation
// table is installed, lookups also return tuned Cubic parameters for the
// current context bucket.
//
// The estimate is only trustworthy if it survives misbehaving endpoints:
// senders crash between lookup() and report(), and control-plane messages
// are retried (duplicated), delayed, and reordered. Two mechanisms keep
// the state honest:
//   * liveness leases — every lookup grants a lease; a connection that
//     neither reports nor renews (mid-stream progress) within the lease
//     is presumed dead and swept from the active set, so n decays back to
//     truth after crashes instead of growing without bound;
//   * idempotent reports — reports carrying an identity (see
//     protocol.hpp) are absorbed exactly once via a bounded
//     recently-seen set, so a retry cannot double-count delivered bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "phi/context.hpp"
#include "phi/protocol.hpp"
#include "phi/recommendation.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace phi::core {

struct ContextServerConfig {
  /// Sliding window over which delivered bytes are turned into a
  /// utilization estimate. The "network weather" horizon.
  util::Duration window = util::seconds(10);
  /// Smoothing for the queue-delay and loss estimates.
  double ewma_alpha = 0.3;
  /// Liveness lease granted by lookup(): a connection that sends no
  /// (final or progress) report within this long is presumed crashed and
  /// dropped from the active set. Default ~2x the utilization window;
  /// 0 disables liveness tracking (legacy behavior — crashed senders
  /// inflate `competing_senders` forever).
  util::Duration lease = util::seconds(20);
  /// Capacity of the recently-seen report-id set used for duplicate
  /// detection (FIFO eviction). 0 disables idempotency checks.
  std::size_t dedup_capacity = 4096;
  /// Bucketing used when consulting the recommendation table.
  ContextBucketer bucketer{};
};

class ContextServer : public ContextSource, public ContextService {
 public:
  /// `clock` supplies "now" for window expiry; defaults to the timestamp
  /// of the last message processed (fine for simulation use — wire it to
  /// the scheduler for exactness).
  explicit ContextServer(ContextServerConfig cfg = {},
                         std::function<util::Time()> clock = nullptr);

  /// The provider knows its egress capacities; utilization estimates are
  /// meaningless until the path's capacity is configured (before that, the
  /// server falls back to the fastest rate it has ever observed).
  void set_path_capacity(PathKey path, util::Rate bps);

  void set_recommendations(RecommendationTable table);
  const RecommendationTable& recommendations() const noexcept {
    return recommendations_;
  }

  /// Federation (§3.1): install an externally-agreed utilization for a
  /// path (e.g. the fleet-wide mean computed by secure aggregation across
  /// providers). While fresh (within `ttl` of `at`), context() reports
  /// the larger of the local estimate and this value — one provider's own
  /// traffic can only under-estimate a shared bottleneck's load.
  void set_external_utilization(PathKey path, double u, util::Time at,
                                util::Duration ttl = util::seconds(10));

  /// Connection start: registers the sender as active (granting it a
  /// liveness lease) and returns the current context (+ tuned parameters
  /// when available).
  LookupReply lookup(const LookupRequest& req);

  /// Connection end (or mid-stream progress): absorb the connection's
  /// experience into shared state. Duplicate reports (same identity, see
  /// protocol.hpp) are detected and absorbed exactly once.
  void report(const Report& r);

  /// Expire lapsed leases on every path. Called implicitly on each
  /// message; exposed so an operator loop (or test) can force a sweep on
  /// a quiescent server. Returns the number of connections expired.
  std::size_t gc(util::Time now);

  /// Current aggregated view of a path (ContextSource interface).
  CongestionContext context(PathKey path) const override;

  /// Open connections currently counted on `path` (post-sweep).
  std::size_t active_connections(PathKey path) const;

  std::uint64_t lookups() const noexcept { return lookups_; }
  std::uint64_t reports() const noexcept { return reports_; }
  std::uint64_t state_version() const noexcept { return version_; }
  /// Connections presumed dead after their lease lapsed without a report.
  std::uint64_t expired_leases() const noexcept { return expired_leases_; }
  /// Reports discarded because their identity was already absorbed.
  std::uint64_t duplicate_reports() const noexcept {
    return duplicate_reports_;
  }

  /// Persist the aggregated path state (capacities, delivery windows,
  /// smoothed estimates, open-connection sets with lease deadlines, and
  /// federated utilization) so a restarted server resumes with warm
  /// weather instead of a cold start. Emits the v2 format;
  /// recommendations are installed separately and are not included, and
  /// the duplicate-detection set is deliberately dropped (after a restart
  /// the idempotency window restarts too).
  std::string serialize_state() const;
  /// Replace this server's path state from serialize_state() output.
  /// Accepts both the current v2 format and the legacy v1 format (which
  /// lacked lease deadlines and federated state: restored v1 connections
  /// get a fresh lease, federated state starts empty). Returns false
  /// (leaving the server untouched) on malformed or hostile input —
  /// including element counts larger than the input could possibly hold
  /// and non-finite floating-point fields.
  bool restore_state(const std::string& text);

 private:
  struct Delivery {
    util::Time start;
    util::Time end;
    std::int64_t bytes;
  };

  struct PathState {
    util::Rate capacity = 0;        ///< configured or observed max
    std::deque<Delivery> window;    ///< recent completed transfers
    /// Open connections: sender id -> lease deadline (Time max when
    /// liveness is disabled).
    std::unordered_map<std::uint64_t, util::Time> active;
    /// At or below every deadline in `active`, so a sweep at a `now` not
    /// past it cannot expire anything. Grants and renewals lower it, a
    /// full sweep sets it exactly, removals leave it (still a bound).
    /// Starts at Time min so the first sweep of a state runs in full.
    util::Time lease_floor = std::numeric_limits<util::Time>::min();
    /// utilization_of() memo: `window_gen` counts changes to its inputs
    /// (window pushes and pops, capacity); `u` stands while neither the
    /// count nor `now` has moved since it was computed. An aggregator's
    /// batch of same-instant lookups then costs one window scan.
    std::uint64_t window_gen = 1;
    std::uint64_t u_gen = 0;
    util::Time u_at = 0;
    double u = 0.0;
    util::Ewma queue_delay{0.3};
    util::Ewma loss{0.3};
    util::Ewma senders{0.3};
    double min_rtt_s = 0.0;         ///< smallest RTT ever reported
    bool has_min_rtt = false;
    double external_u = -1.0;       ///< federated utilization, if any
    util::Time external_at = 0;
    util::Duration external_ttl = 0;
  };

  util::Time now_or(util::Time fallback) const {
    return clock_ ? clock_() : fallback;
  }
  util::Time lease_deadline(util::Time now) const;
  /// Grant or renew `sender`'s lease on `st` from `now`.
  void grant_lease(PathState& st, std::uint64_t sender, util::Time now);
  void expire(PathState& st, util::Time now) const;
  /// Drop active connections whose lease lapsed; returns how many.
  std::size_t sweep_leases(PathState& st, util::Time now) const;
  double utilization_of(const PathState& st, util::Time now) const;
  /// True (and remembers the id) when `r` was seen before.
  bool already_absorbed(const Report& r);

  ContextServerConfig cfg_;
  std::function<util::Time()> clock_;
  mutable std::unordered_map<PathKey, PathState> paths_;
  RecommendationTable recommendations_;
  std::unordered_set<std::uint64_t> seen_reports_;
  std::deque<std::uint64_t> seen_order_;  ///< FIFO eviction for the set
  std::uint64_t lookups_ = 0;
  std::uint64_t reports_ = 0;
  std::uint64_t version_ = 0;
  mutable std::uint64_t expired_leases_ = 0;
  std::uint64_t duplicate_reports_ = 0;
  util::Time last_message_at_ = 0;
  /// Pending causal-flow arrow from the last traced report's aggregation
  /// span, consumed (one-shot, Chrome flow events pair 1:1) by the next
  /// traced lookup — the trace then shows which report informed the
  /// recommendation the lookup returned.
  std::uint32_t last_report_bind_ = 0;
  std::uint64_t table_installs_ = 0;

  // Registry handles (aggregated across servers), resolved at
  // construction. Plain pointers so the const query paths (sweep_leases,
  // serialize_state) can bump them too.
  telemetry::Counter* ctr_lookups_;
  telemetry::Counter* ctr_reports_;
  telemetry::Counter* ctr_dup_reports_;
  /// Final reports whose sender held no open lease (never looked up yet,
  /// already expired, or already closed).
  telemetry::Counter* ctr_unleased_reports_;
  telemetry::Counter* ctr_lease_grants_;
  telemetry::Counter* ctr_lease_expiries_;
  telemetry::Counter* ctr_gc_sweeps_;
  telemetry::Counter* ctr_snapshot_saves_;
  telemetry::Counter* ctr_snapshot_restores_;
  telemetry::Gauge* g_version_;
  // Event-driven time-series: state-version on every absorbed report,
  // context staleness (age of the newest message the server had seen) on
  // every lookup, and table churn on every set_recommendations. Sampled
  // on control-plane events, not packets — the steady-state datapath
  // never touches these — and only inside a run that records time
  // series (telemetry::recording_series()), since they grow per message.
  telemetry::TimeSeries* ts_version_;
  telemetry::TimeSeries* ts_staleness_;
  telemetry::TimeSeries* ts_table_installs_;
};

}  // namespace phi::core
