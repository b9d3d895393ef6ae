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
// Determinism: the whole session trace is pregenerated at setup from
// util::derive_seed(spec.seed, kChurnStream) on the main thread, so the
// engine's existing per-sender seed draws are untouched (all PR 4–8
// goldens stay byte-identical) and sharded runs see the exact same
// arrivals as serial runs. Sessions route to a bounded pool of slots —
// `slots_per_endpoint` per topology endpoint, round-robin per endpoint —
// and each active slot owns one TcpSender/TcpSink pair for the whole run,
// replaying its sessions back-to-back in arrival order. An arrival that
// finds its slot busy queues behind it (the wait is recorded separately
// from the in-network time), so flow-completion times degrade gracefully
// under overload instead of the sender population growing without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event.hpp"
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

/// One sender slot replaying its share of the session trace. All state
/// transitions run on the scheduler that owns the slot's transmit node,
/// so sharded runs stay race-free; per-session results are written into
/// caller-owned arrays indexed by global session number (distinct
/// elements per slot — no cross-thread sharing). Steady-state operation
/// is allocation-free: sessions are preloaded, the done-callback capture
/// fits DoneCallback's inline buffer, and timer closures fit SmallFn.
class ChurnSlot {
 public:
  struct Entry {
    util::Time at = 0;           ///< arrival time
    std::int64_t segments = 0;   ///< transfer size
    std::size_t index = 0;       ///< global session number
  };

  /// Size the session list for `n` sessions before add()ing them.
  void reserve(std::size_t n) { sessions_.reserve(n); }
  /// Preload one session; call in arrival order.
  void add(const Entry& e) { sessions_.push_back(e); }

  /// Wire the slot to its scheduler/sender and the result arrays.
  /// Sessions arriving before `measure_from` still run (they are the
  /// warm-up load) but are excluded from the measured aggregates.
  void bind(sim::Scheduler& sched, tcp::TcpSender& sender, double* fct_s,
            double* wait_s, util::Time measure_from) {
    sched_ = &sched;
    sender_ = &sender;
    fct_s_ = fct_s;
    wait_s_ = wait_s;
    measure_from_ = measure_from;
  }

  /// Optional per-slot advisor (e.g. PhiCubicAdvisor), invoked around
  /// every session like OnOffApp does around every connection.
  void set_advisor(tcp::ConnectionAdvisor* a) { advisor_ = a; }

  /// Schedule the first session; each completion arms the next.
  void start() { arm_next(); }

  std::size_t offered() const noexcept { return sessions_.size(); }
  std::size_t started() const noexcept { return started_; }
  std::size_t completed() const noexcept { return completed_; }

  /// Aggregates over completed sessions that arrived at/after
  /// `measure_from`; each session's on-time is its flow-completion time.
  const tcp::ConnTotals& measured() const noexcept { return measured_; }

 private:
  void arm_next() {
    if (cursor_ >= sessions_.size()) return;
    const util::Time at = sessions_[cursor_].at;
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
    const Entry& e = sessions_[cursor_];
    wait_s_[e.index] = util::to_seconds(sched_->now() - e.at);
    ++started_;
    if (advisor_ != nullptr) advisor_->before_connection(*sender_);
    sender_->start_connection(
        e.segments, [this](const tcp::ConnStats& s) { on_done(s); });
  }

  void on_done(const tcp::ConnStats& s) {
    const Entry& e = sessions_[cursor_];
    const double fct = util::to_seconds(sched_->now() - e.at);
    fct_s_[e.index] = fct;
    ++completed_;
    if (e.at >= measure_from_) measured_.absorb(s, fct);
    if (advisor_ != nullptr) advisor_->after_connection(s, *sender_);
    ++cursor_;
    arm_next();
  }

  sim::Scheduler* sched_ = nullptr;
  tcp::TcpSender* sender_ = nullptr;
  tcp::ConnectionAdvisor* advisor_ = nullptr;
  double* fct_s_ = nullptr;
  double* wait_s_ = nullptr;
  util::Time measure_from_ = 0;
  std::vector<Entry> sessions_;
  std::size_t cursor_ = 0;
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

/// Fold per-slot aggregates and the per-session result arrays into run
/// metrics. `arrivals`, `fct_s` and `wait_s` are indexed by global
/// session number; fct < 0 marks a session still running (or never
/// started) at run end.
ChurnMetrics aggregate_churn(
    const std::vector<std::unique_ptr<ChurnSlot>>& slots,
    const std::vector<util::Time>& arrivals,
    const std::vector<double>& fct_s, const std::vector<double>& wait_s,
    util::Time measure_from, double duration_s);

}  // namespace phi::core
