// app.hpp — the paper's workload: each sender alternates between "on"
// periods (a fresh connection transferring an exponentially-distributed
// number of bytes) and exponentially-distributed idle "off" periods
// (§2.2). The ConnectionAdvisor hook is where Phi plugs in: look up the
// context server before a connection, report back after it.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event.hpp"
#include "tcp/sender.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace phi::tcp {

/// Hook invoked around each connection of an OnOffApp. Default: no-op
/// (autonomous sender, the paper's status quo).
class ConnectionAdvisor {
 public:
  virtual ~ConnectionAdvisor() = default;
  /// Called just before start_connection; may call sender.set_cc(...) to
  /// install tuned parameters (the Phi lookup).
  virtual void before_connection(TcpSender& sender) { (void)sender; }
  /// Called when a connection completes (the Phi report).
  virtual void after_connection(const ConnStats& stats,
                                const TcpSender& sender) {
    (void)stats;
    (void)sender;
  }
};

/// Aggregates over completed connections — what the paper reports per
/// sender (throughput = bits / on-time). One tally serves every traffic
/// shape: on/off apps, bulk transfers and churn sessions.
struct ConnTotals {
  std::int64_t connections = 0;
  double bits = 0;
  double on_time_s = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t timeouts = 0;
  util::RunningStats rtt;  ///< one mean-RTT sample per connection

  /// Count one completed connection that was "on" for `on_time` seconds.
  void absorb(const ConnStats& s, double on_time);
  void merge(const ConnTotals& o);
  double throughput_bps() const noexcept {
    return on_time_s > 0 ? bits / on_time_s : 0.0;
  }
};

struct OnOffConfig {
  double mean_on_bytes = 500e3;  ///< exponential; paper Fig. 2 uses 500 KB
  double mean_off_s = 2.0;       ///< exponential; paper Fig. 2 uses 2 s
  bool start_with_off = true;    ///< desynchronize flow starts
  std::int64_t max_connections = 0;  ///< 0 = unlimited
};

/// Drives an endless sequence of connections on one TcpSender and
/// accumulates the aggregates the paper reports (throughput is bits
/// transferred / on-time).
class OnOffApp {
 public:
  OnOffApp(sim::Scheduler& sched, TcpSender& sender, OnOffConfig cfg,
           std::uint64_t seed);
  ~OnOffApp();

  OnOffApp(const OnOffApp&) = delete;
  OnOffApp& operator=(const OnOffApp&) = delete;

  void set_advisor(ConnectionAdvisor* advisor) noexcept {
    advisor_ = advisor;
  }

  /// Begin the on/off cycle (call once, before or during the run).
  void start();
  /// Stop launching new connections (in-flight one finishes naturally).
  void stop() noexcept;

  /// Aggregates over completed connections.
  const ConnTotals& totals() const noexcept { return totals_; }

  /// Clear accumulated aggregates (e.g. after a warmup period). The
  /// on/off cycle keeps running; a connection spanning the reset reports
  /// its full stats into the fresh aggregates.
  void reset_aggregates() noexcept;

  TcpSender& sender() noexcept { return sender_; }

 private:
  void schedule_next_connection(double off_delay_s);
  void launch_connection();
  void on_connection_done(const ConnStats& s);

  sim::Scheduler& sched_;
  TcpSender& sender_;
  OnOffConfig cfg_;
  util::Rng rng_;
  ConnectionAdvisor* advisor_ = nullptr;

  bool running_ = false;
  sim::EventId pending_ = 0;

  ConnTotals totals_;
};

}  // namespace phi::tcp
