// churn.hpp — open-loop flow churn for the scenario engine. Instead of a
// fixed population of on/off senders, a ChurnSpec drives an open-loop
// arrival process (Poisson arrivals, Zipf destination popularity,
// bounded-Pareto sizes — flow/tracegen.hpp's generators) whose sessions
// are created and retired dynamically during the run. This is the
// fleet-scale workload shape of §2.1: at 10^5–10^6 short flows per run,
// most connections start and finish inside one utilization window, which
// is exactly the regime where a shared context server has something to
// say that per-connection probing cannot learn in time.
//
// Determinism: the whole session trace is generated at setup from
// util::derive_seed(spec.seed, kChurnStream) on the main thread, so the
// engine's per-sender seed draws are untouched and sharded runs see the
// exact same arrivals as serial runs.
//
// Storage: each session is stored once, as one 32-byte row of a
// ChurnSessions table in arrival order, generated straight into it.
// Sessions route to a bounded pool of slots — `slots_per_endpoint` per
// topology endpoint, round-robin per endpoint — and a slot's rows form a
// chain through Row::next. Each active slot owns one TcpSender/TcpSink
// pair for the whole run and walks its chain back to back, writing each
// session's wait and flow-completion time into the session's row. An
// arrival that finds its slot busy queues behind it (the wait is recorded
// separately from the in-network time), so flow-completion times degrade
// gracefully under overload instead of the sender population growing
// without bound. After the run, aggregate_churn folds the table into
// ChurnMetrics in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "flow/tracegen.hpp"
#include "sim/event.hpp"
#include "sim/packet.hpp"
#include "tcp/app.hpp"
#include "tcp/sender.hpp"
#include "util/units.hpp"

namespace phi::core {

/// Seed-stream tag for the churn trace ("chrn"); combined with the
/// scenario seed via util::derive_seed so churn draws never perturb the
/// engine's existing sender-seed sequence.
inline constexpr std::uint64_t kChurnStream = 0x6368726EULL;

/// Flow-id base for churn slots, far above the static population's
/// 1000 + i auto-assignment.
inline constexpr sim::FlowId kChurnFlowBase = 1'000'000;

/// Open-loop churn plan for a scenario. Disabled (no arrivals) by
/// default; any positive arrival rate switches the engine from the fixed
/// default population to dynamic session churn (explicit SenderSpec
/// lists still attach alongside, e.g. for background bulk flows).
struct ChurnSpec {
  double arrivals_per_s = 0;     ///< 0 = churn disabled
  double zipf_s = 1.05;          ///< endpoint popularity skew
  double pareto_alpha = 1.15;    ///< flow size tail index
  double min_bytes = 2.0 * 1460; ///< two MSS segments
  double max_bytes = 2e6;
  /// Sender slots per topology endpoint. Bounds concurrent connections
  /// (and memory) regardless of offered load; arrivals beyond it queue.
  std::size_t slots_per_endpoint = 32;
  std::uint64_t max_sessions = 0;  ///< 0 = horizon-bounded only
  bool enabled() const noexcept { return arrivals_per_s > 0; }
};

/// Every churn session of one run, each stored once: one 32-byte row per
/// session, in arrival order. The rows of one slot form a chain through
/// Row::next, and each slot writes its sessions' results into its own
/// rows only, so slots on different shards touch disjoint rows. Append
/// only before the slots start: a reallocation under running shard
/// threads would race with their row writes.
class ChurnSessions {
 public:
  /// Chain end marker; no row has this index.
  static constexpr std::uint32_t kEnd =
      std::numeric_limits<std::uint32_t>::max();
  /// Largest transfer a row can hold: INT32_MAX default-MSS segments.
  static constexpr double kMaxBytes =
      static_cast<double>(std::numeric_limits<std::int32_t>::max()) *
      sim::kDefaultMss;

  struct Row {
    util::Time at = 0;          ///< arrival time
    std::int32_t segments = 0;  ///< transfer size in MSS segments
    std::uint32_t next = kEnd;  ///< next row of the same slot
    double fct_s = -1;          ///< arrival to last ACK; < 0 until done
    double wait_s = -1;         ///< arrival to launch; < 0 until launched
  };

  /// Check that every session `cfg` can generate fits a row — fewer than
  /// kEnd sessions expected, at most kMaxBytes each — and that its size
  /// law is well formed (pareto_alpha > 0, 0 < min_bytes < max_bytes),
  /// then reserve the expected count. Throws std::invalid_argument,
  /// before anything is generated, when either check fails.
  void reserve(const flow::SessionConfig& cfg);

  /// Append `s` as a new row chained after row `prev` (kEnd starts a new
  /// chain) and return its index. Throws std::invalid_argument when the
  /// table is full or `s` is larger than kMaxBytes.
  std::uint32_t append(const flow::Session& s, std::uint32_t prev);

  std::span<Row> rows() noexcept { return rows_; }

 private:
  std::vector<Row> rows_;
};

// The row is the engine's whole per-session footprint, paid 10^5–10^6
// times per run: growing it (or adding interior padding) fails the build
// instead of silently growing every churn run.
static_assert(sizeof(ChurnSessions::Row) <= 32,
              "ChurnSessions::Row outgrew its 32-byte budget");

/// One sender slot walking its chain of the session table. All state
/// transitions run on the scheduler that owns the slot's transmit node,
/// so sharded runs stay race-free; each session's results land in its
/// own row, which no other slot touches. Steady-state operation is
/// allocation-free: the rows are generated before the run, the
/// done-callback capture fits DoneCallback's inline buffer, and timer
/// closures fit SmallFn.
class ChurnSlot {
 public:
  /// The slot whose chain starts at row `first` of `sessions`; the table
  /// must outlive the slot.
  ChurnSlot(ChurnSessions& sessions, std::uint32_t first)
      : sessions_(sessions), cursor_(first) {}
  ChurnSlot(const ChurnSlot&) = delete;
  ChurnSlot& operator=(const ChurnSlot&) = delete;

  /// Wire the slot to its scheduler and sender. Sessions arriving before
  /// `measure_from` still run (they are the warm-up load) but are
  /// excluded from the measured aggregates.
  void bind(sim::Scheduler& sched, tcp::TcpSender& sender,
            util::Time measure_from) {
    sched_ = &sched;
    sender_ = &sender;
    measure_from_ = measure_from;
  }

  /// Optional per-slot advisor (e.g. PhiCubicAdvisor), invoked around
  /// every session like OnOffApp does around every connection.
  void set_advisor(tcp::ConnectionAdvisor* a) { advisor_ = a; }

  /// Schedule the first session; each completion arms the next.
  void start() { arm_next(); }

  std::size_t started() const noexcept { return started_; }
  std::size_t completed() const noexcept { return completed_; }

  /// Aggregates over completed sessions that arrived at/after
  /// `measure_from`; each session's on-time is its flow-completion time.
  const tcp::ConnTotals& measured() const noexcept { return measured_; }

 private:
  void arm_next() {
    if (cursor_ == ChurnSessions::kEnd) return;
    const util::Time at = sessions_.rows()[cursor_].at;
    if (at <= sched_->now()) {
      // Never start a connection from inside the completion callback of
      // the previous one: bounce through a zero-delay event so the
      // sender has fully retired the old connection first.
      sched_->schedule_in(0, [this] { launch(); });
    } else {
      sched_->schedule_at(at, [this] { launch(); });
    }
  }

  void launch() {
    ChurnSessions::Row& r = sessions_.rows()[cursor_];
    r.wait_s = util::to_seconds(sched_->now() - r.at);
    ++started_;
    if (advisor_ != nullptr) advisor_->before_connection(*sender_);
    sender_->start_connection(
        r.segments, [this](const tcp::ConnStats& s) { on_done(s); });
  }

  void on_done(const tcp::ConnStats& s) {
    ChurnSessions::Row& r = sessions_.rows()[cursor_];
    const double fct = util::to_seconds(sched_->now() - r.at);
    r.fct_s = fct;
    ++completed_;
    if (r.at >= measure_from_) measured_.absorb(s, fct);
    if (advisor_ != nullptr) advisor_->after_connection(s, *sender_);
    cursor_ = r.next;
    arm_next();
  }

  ChurnSessions& sessions_;
  sim::Scheduler* sched_ = nullptr;
  tcp::TcpSender* sender_ = nullptr;
  tcp::ConnectionAdvisor* advisor_ = nullptr;
  util::Time measure_from_ = 0;
  std::uint32_t cursor_;  ///< the current session's row, or kEnd
  std::size_t started_ = 0;
  std::size_t completed_ = 0;
  tcp::ConnTotals measured_;
};

/// Churn results for one run. FCT percentiles are over completed
/// sessions that arrived at/after the warmup boundary; `wait_mean_s` is
/// the slot-queueing delay component of those FCTs (0 when slots always
/// had capacity), and `deferred` counts the measured sessions that had
/// to wait at all.
struct ChurnMetrics {
  bool enabled = false;
  std::uint64_t offered = 0;    ///< sessions in the generated trace
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t measured = 0;   ///< completed, arrived after warmup
  std::uint64_t deferred = 0;
  double fct_p50_s = 0;
  double fct_p90_s = 0;
  double fct_p99_s = 0;
  double fct_mean_s = 0;
  double wait_mean_s = 0;
  double goodput_bps = 0;       ///< measured bits / measurement window
  double mean_rtt_s = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

/// Fold per-slot aggregates and the session table into run metrics; a
/// row with fct_s < 0 is a session still running (or never started) at
/// run end. Consumes the table: the measured FCTs are compacted into its
/// front rows and sorted there for the percentiles, which leaves every
/// other row field meaningless.
ChurnMetrics aggregate_churn(
    const std::vector<std::unique_ptr<ChurnSlot>>& slots,
    ChurnSessions& sessions, util::Time measure_from, double duration_s);

}  // namespace phi::core
