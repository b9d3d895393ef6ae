// probes.hpp — per-layer cost measured from outside the simulator. Each
// proxy implements one public layer interface (tcp::CongestionControl,
// tcp::ConnectionAdvisor, core::ContextService), forwards every call to
// the real object unchanged, counts the calls exactly, and clocks one
// call in kSampleStride with steady_clock — the same stride LoopProfile
// uses, so the ns/call rows of every layer are read the same way.
//
// A proxy never changes what the wrapped object sees or returns, so a
// traced run simulates exactly what an untraced run does (the ledger
// checks this by digest). Each proxy writes into a CallStats slot owned
// by the harness: the slot outlives the proxy (the engine destroys
// senders and advisors before run_scenario returns) and is written by
// one thread only (the shard that owns the sender), so sharded runs need
// no synchronisation; the harness sums the slots after the run joins.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "phi/protocol.hpp"
#include "tcp/app.hpp"
#include "tcp/cc.hpp"

namespace phi::ledger {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Exact call count plus sampled wall-clock for one proxied entry point.
struct CallStats {
  static constexpr std::uint64_t kSampleStride = 16;

  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::uint64_t sampled_ns = 0;

  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    if (++calls % kSampleStride != 0) return fn();
    struct Clock {
      CallStats& s;
      std::uint64_t t0 = now_ns();
      ~Clock() {
        s.sampled_ns += now_ns() - t0;
        ++s.sampled;
      }
    } clock{*this};
    return fn();
  }

  void merge(const CallStats& o) noexcept {
    calls += o.calls;
    sampled += o.sampled;
    sampled_ns += o.sampled_ns;
  }
  /// Mean ns per call over the sampled calls (0 when nothing sampled).
  double ns_per_call() const noexcept {
    return sampled != 0 ? static_cast<double>(sampled_ns) /
                              static_cast<double>(sampled)
                        : 0.0;
  }
  /// Estimated total seconds spent in the entry point.
  double busy_s() const noexcept {
    return ns_per_call() * static_cast<double>(calls) * 1e-9;
  }
};

/// Stable-address slots for one run's proxies (deque never relocates on
/// push_back). Filled on the main thread while the engine builds senders.
using StatsSlots = std::deque<CallStats>;

inline CallStats sum(const StatsSlots& slots) {
  CallStats total;
  for (const CallStats& s : slots) total.merge(s);
  return total;
}

/// Congestion-control proxy: times on_ack, the per-ACK window update.
class TimedCc final : public tcp::CongestionControl {
 public:
  TimedCc(std::unique_ptr<tcp::CongestionControl> inner, CallStats& on_ack)
      : inner_(std::move(inner)), on_ack_(on_ack) {}

  void reset(util::Time now) override { inner_->reset(now); }
  void on_ack(std::int64_t newly_acked, double rtt_s,
              util::Time now) override {
    on_ack_.time([&] { inner_->on_ack(newly_acked, rtt_s, now); });
  }
  void on_loss_event(util::Time now, std::int64_t flight) override {
    inner_->on_loss_event(now, flight);
  }
  void on_timeout(util::Time now, std::int64_t flight) override {
    inner_->on_timeout(now, flight);
  }
  double window() const override { return inner_->window(); }
  double ssthresh() const override { return inner_->ssthresh(); }
  util::Duration min_send_gap(util::Time now) const override {
    return inner_->min_send_gap(now);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<tcp::CongestionControl> inner_;
  CallStats& on_ack_;
};

/// Client proxy: times the advisor's lookup-and-adopt before each
/// connection and its report after it (the paper's "two small messages
/// per connection"), including the call into the aggregator.
class TimedAdvisor final : public tcp::ConnectionAdvisor {
 public:
  TimedAdvisor(std::unique_ptr<tcp::ConnectionAdvisor> inner,
               CallStats& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  void before_connection(tcp::TcpSender& sender) override {
    calls_.time([&] { inner_->before_connection(sender); });
  }
  void after_connection(const tcp::ConnStats& stats,
                        const tcp::TcpSender& sender) override {
    calls_.time([&] { inner_->after_connection(stats, sender); });
  }

 private:
  std::unique_ptr<tcp::ConnectionAdvisor> inner_;
  CallStats& calls_;
};

/// Context-service proxy, placed in front of an aggregator (clients call
/// it) or in front of the root server (aggregators call it).
class TimedService final : public core::ContextService {
 public:
  TimedService(core::ContextService& inner, CallStats& lookups,
               CallStats& reports)
      : inner_(inner), lookups_(lookups), reports_(reports) {}

  core::LookupReply lookup(const core::LookupRequest& req) override {
    return lookups_.time([&] { return inner_.lookup(req); });
  }
  void report(const core::Report& r) override {
    reports_.time([&] { inner_.report(r); });
  }

 private:
  core::ContextService& inner_;
  CallStats& lookups_;
  CallStats& reports_;
};

}  // namespace phi::ledger
