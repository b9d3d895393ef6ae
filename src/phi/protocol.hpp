// protocol.hpp — the Phi control-plane messages (§2.2.2). Communication
// with the context server is deliberately minimal: one lookup when a
// connection starts, one report when it ends. These structs are the wire
// format of that exchange; making them explicit keeps the control plane a
// real protocol rather than a function call.
//
// At production scale the control plane rides an unreliable network of its
// own: requests get retried (duplicates), delayed, reordered, and senders
// crash between lookup and report. Two protocol features make the server
// robust to that:
//   * every lookup is answered with a *lease* — the server presumes a
//     connection dead (and stops counting it in n) if the lease lapses
//     without a report;
//   * reports carry an identity (sender_id, epoch, seq) so a retried
//     report is absorbed exactly once.
#pragma once

#include <cstdint>

#include "phi/context.hpp"
#include "tcp/cc.hpp"
#include "util/units.hpp"

namespace phi::core {

/// Sender -> server, at connection start.
struct LookupRequest {
  PathKey path = 0;
  std::uint64_t sender_id = 0;
  util::Time at = 0;
  /// Connection epoch at the sender (1-based; 0 = sender does not number
  /// its connections). Lets the server tie the later report(s) to this
  /// registration.
  std::uint64_t epoch = 0;
  /// Causal-tracing id of the requesting connection's flow (0 = untraced).
  /// Tracing metadata only — the server's behavior never depends on it.
  std::uint32_t trace = 0;
};

/// Server -> sender. Carries the current congestion context and, when the
/// server has a recommendation table, tuned Cubic parameters for it.
struct LookupReply {
  CongestionContext context;
  tcp::CubicParams recommended;    ///< valid iff has_recommendation
  bool has_recommendation = false;
  std::uint64_t state_version = 0; ///< bumps on every report the server absorbs
  /// Liveness lease granted to this connection: report (or send mid-stream
  /// progress) within this long or be presumed crashed. 0 = no lease
  /// (the server has liveness tracking disabled).
  util::Duration lease = 0;
  /// Causal-tracing flow-arrow id emitted by the server's recommendation
  /// span (0 = none). The client's adoption span closes the arrow, tying
  /// "parameters installed" back to "recommendation computed" in a trace.
  std::uint32_t span_bind = 0;
};

/// Sender -> server, at connection end: "when and how much data was
/// transferred" plus the delay/loss the connection experienced — exactly
/// the inputs §2.2.2 says enable estimating u, n and q.
struct Report {
  /// kFinal closes the connection (removes it from the active set);
  /// kProgress is a §2.2.2 mid-stream report: it contributes delivered
  /// bytes and renews the connection's lease but keeps it active.
  enum class Kind : std::uint8_t { kFinal, kProgress };

  PathKey path = 0;
  std::uint64_t sender_id = 0;
  util::Time started = 0;
  util::Time ended = 0;
  std::int64_t bytes = 0;
  double min_rtt_s = 0.0;
  double mean_rtt_s = 0.0;
  double retransmit_rate = 0.0;  ///< loss proxy
  Kind kind = Kind::kFinal;

  /// Report identity for exactly-once absorption: `epoch` is the sender's
  /// connection number (1-based), `seq` distinguishes the reports of one
  /// connection (0 = completion, 1.. = mid-stream progress). epoch == 0
  /// means "unnumbered" — the server skips duplicate detection for it.
  std::uint64_t epoch = 0;
  std::uint32_t seq = 0;

  /// Causal-tracing metadata (0 = untraced): the flow id's trace tag and
  /// the flow-arrow id emitted by the client's "phi.report" span. The
  /// server's aggregation span closes the arrow. Never affects behavior.
  std::uint32_t trace = 0;
  std::uint32_t bind = 0;

  bool has_report_id() const noexcept { return epoch != 0; }
  /// 64-bit key of (sender_id, epoch, seq) for the recently-seen set.
  /// A boost-style hash_combine, not a random hash: neighbouring
  /// identities collide often. Senders 900000-900511 x epochs 1-399 map
  /// to only 32,434 keys (e.g. (900000, 65) and (900001, 2)), so a
  /// fat-tree churn run drops some genuine reports as duplicates. A
  /// better mix changes every Phi result and needs its own re-baseline.
  std::uint64_t report_key() const noexcept {
    std::uint64_t h = sender_id;
    h ^= epoch + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h ^= seq + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  }

  double duration_s() const noexcept {
    return util::to_seconds(ended - started);
  }
};

/// Anything a Phi client can talk the lookup/report protocol to: the
/// root ContextServer itself, or a per-region AggregatorServer that
/// batches traffic up an aggregation tree (see phi/aggregation.hpp).
/// Client-side advisors hold a ContextService&, so the same advisor
/// works against either — or against a whole tree.
class ContextService {
 public:
  virtual ~ContextService() = default;
  virtual LookupReply lookup(const LookupRequest& req) = 0;
  virtual void report(const Report& r) = 0;
};

}  // namespace phi::core
