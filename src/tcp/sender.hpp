// sender.hpp — the transport machinery shared by every congestion-control
// policy: segment-granular sliding window, duplicate-ACK fast retransmit,
// NewReno-style recovery, RFC 6298 retransmission timeouts, and optional
// pacing (used by RemyCC). Loss *detection* lives here; the window policy
// lives in the CongestionControl object.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/event.hpp"
#include "sim/node.hpp"
#include "sim/packet.hpp"
#include "tcp/cc.hpp"
#include "tcp/rtt.hpp"
#include "tcp/scoreboard.hpp"
#include "telemetry/telemetry.hpp"
#include "util/small_fn.hpp"
#include "util/stats.hpp"

namespace phi::tcp {

/// Per-connection outcome, reported to the application when the last
/// segment is acknowledged. This is also the payload of a Phi report.
struct ConnStats {
  sim::FlowId flow = 0;
  std::uint32_t conn = 0;
  util::Time start = 0;
  util::Time end = 0;
  std::int64_t segments = 0;       ///< application data, in segments
  std::uint64_t packets_sent = 0;  ///< includes retransmissions
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t loss_events = 0;   ///< fast-retransmit episodes
  std::uint64_t ecn_signals = 0;   ///< window cuts from ECE echoes
  double min_rtt_s = 0;
  double mean_rtt_s = 0;
  std::uint64_t rtt_samples = 0;

  double duration_s() const noexcept {
    return util::to_seconds(end - start);
  }
  /// Goodput over the connection's lifetime ("on" period).
  double throughput_bps() const noexcept {
    const double d = duration_s();
    return d > 0 ? static_cast<double>(segments) * sim::kDefaultMss * 8.0 / d
                 : 0.0;
  }
  /// Fraction of transmitted packets that were retransmissions — the
  /// sender-side loss proxy shared with the context server.
  double retransmit_rate() const noexcept {
    return packets_sent
               ? static_cast<double>(retransmits) /
                     static_cast<double>(packets_sent)
               : 0.0;
  }
};

class TcpSender : public sim::Agent {
 public:
  /// Move-only with inline storage: churn harnesses restart connections
  /// hundreds of thousands of times per run, and a std::function here
  /// heap-allocated each restart for any capture over two pointers.
  using DoneCallback = util::BasicSmallFn<void(const ConnStats&)>;

  /// Attaches itself to `local` for `flow`; detaches in the destructor.
  TcpSender(sim::Scheduler& sched, sim::Node& local, sim::NodeId dst,
            sim::FlowId flow, std::unique_ptr<CongestionControl> cc);
  ~TcpSender() override;

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Begin a fresh connection transferring `segments` MSS-sized segments.
  /// Must not be called while busy(). `done` fires when fully ACKed.
  void start_connection(std::int64_t segments, DoneCallback done);

  bool busy() const noexcept { return active_; }

  /// Replace the congestion-control policy. Only legal while idle — this
  /// is the hook Phi's advisor uses to install tuned parameters before a
  /// connection starts.
  void set_cc(std::unique_ptr<CongestionControl> cc);
  CongestionControl& cc() noexcept { return *cc_; }
  const CongestionControl& cc() const noexcept { return *cc_; }

  const RttEstimator& rtt() const noexcept { return rtt_; }

  /// §3.2 informed adaptation: duplicate-ACK threshold for fast
  /// retransmit (default 3; raise when shared data says reordering is
  /// prevalent).
  void set_dupack_threshold(int k) noexcept { dupack_threshold_ = k; }
  int dupack_threshold() const noexcept { return dupack_threshold_; }

  /// §3.3 coordination: priority class stamped on outgoing packets.
  void set_priority(std::uint32_t p) noexcept { priority_ = p; }

  /// RFC 3168 ECN: stamp outgoing data ECT and respond to echoed CE
  /// marks with a once-per-window congestion cut (no retransmission).
  void set_ecn(bool enabled) noexcept { ecn_ = enabled; }
  bool ecn() const noexcept { return ecn_; }

  /// Selective acknowledgments (RFC 2018/6675-style recovery): the sender
  /// keeps a scoreboard of SACKed segments and retransmits exactly the
  /// holes, so multi-loss windows recover without a timeout. Pair with
  /// TcpSink::set_sack(true).
  void set_sack(bool enabled) noexcept { sack_ = enabled; }
  bool sack() const noexcept { return sack_; }

  void on_packet(const sim::Packet& p) override;

  sim::FlowId flow() const noexcept { return flow_; }
  std::int64_t segments_in_flight() const noexcept {
    return snd_nxt_ - snd_una_;
  }

  /// Causal-tracing id for this sender's flow: nonzero when an EventLog
  /// was installed at construction time and sampled the flow. Stamped
  /// on every outgoing packet; the Phi client reuses it to link context
  /// reports to the connection that produced them.
  std::uint32_t trace_tag() const noexcept { return trace_tag_; }

  /// Cumulatively ACKed segments across the sender's lifetime, including
  /// the live connection — lets harnesses measure goodput of flows that
  /// never finish (long-running experiments).
  std::int64_t lifetime_acked_segments() const noexcept {
    return lifetime_acked_;
  }

 private:
  void try_send();
  void send_segment(std::int64_t seq);
  void on_ack(const sim::Packet& p);
  void enter_recovery();
  void on_rto();
  void arm_rto();
  void cancel_rto();
  void finish();

  // --- SACK machinery ---
  void absorb_sack(const sim::Packet& p);
  /// How long a retransmitted hole may stay unacknowledged before it is
  /// deemed lost again (RACK-style rescue window).
  util::Duration rescue_after() const;
  void try_send_sack();

  sim::Scheduler& sched_;
  sim::Node& node_;
  sim::NodeId dst_;
  sim::FlowId flow_;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;

  bool active_ = false;
  std::uint32_t conn_ = 0;
  std::int64_t total_ = 0;
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  std::int64_t high_water_ = 0;  ///< highest seq ever transmitted + 1
  std::int64_t dupacks_ = 0;
  int dupack_threshold_ = 3;
  bool sack_ = false;
  /// SACK coverage, retransmission history, and the incremental pipe
  /// estimate, as interval run lists (see scoreboard.hpp). A hole still
  /// open 1.5 smoothed RTTs after its retransmission is deemed lost
  /// again and becomes eligible for another retransmission (RACK-style
  /// time-based rescue, without full RACK machinery).
  SackScoreboard sb_;
  bool ecn_ = false;
  std::int64_t ecn_cut_point_ = -1;  ///< suppress further cuts until ACKed past
  bool in_recovery_ = false;
  std::int64_t recovery_point_ = 0;
  int partial_acks_in_recovery_ = 0;
  /// RFC 5681/6582 window inflation while in fast recovery (segments).
  std::int64_t inflation_ = 0;
  /// RFC 6582 "bugfix": highest sequence sent when the last timeout
  /// occurred; duplicate ACKs at or below it must not trigger another
  /// fast retransmit (they are echoes of go-back-N duplicates).
  std::int64_t recover_mark_ = -1;
  std::uint32_t priority_ = 0;
  std::uint32_t trace_tag_ = 0;  ///< see trace_tag()

  sim::EventId rto_event_ = 0;
  sim::EventId pacing_event_ = 0;
  util::Time next_send_time_ = 0;

  ConnStats stats_;
  util::RunningStats rtt_agg_;
  std::int64_t lifetime_acked_ = 0;
  DoneCallback done_;

  /// Emit a kTcp trace instant tagged with this sender's flow id,
  /// carrying the current cwnd. No-op unless a tracer is installed.
  void trace_state(const char* name) const;

  // Registry handles (aggregated across senders), resolved at
  // construction.
  telemetry::Counter* ctr_conns_;
  telemetry::Counter* ctr_conns_done_;
  telemetry::Counter* ctr_packets_;
  telemetry::Counter* ctr_retransmits_;
  telemetry::Counter* ctr_timeouts_;
  telemetry::Counter* ctr_loss_events_;
  telemetry::Counter* ctr_ecn_cuts_;
  telemetry::Counter* ctr_cwnd_cuts_;
};

}  // namespace phi::tcp
