#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <vector>

#include "phi/context_server.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace phi::core {
namespace {

constexpr PathKey kPath = 42;

Report make_report(std::uint64_t sender, util::Time start, util::Time end,
                   std::int64_t bytes, double min_rtt = 0.15,
                   double mean_rtt = 0.18, double rtx = 0.0) {
  Report r;
  r.path = kPath;
  r.sender_id = sender;
  r.started = start;
  r.ended = end;
  r.bytes = bytes;
  r.min_rtt_s = min_rtt;
  r.mean_rtt_s = mean_rtt;
  r.retransmit_rate = rtx;
  return r;
}

TEST(ContextServer, UnknownPathIsZeroContext) {
  ContextServer server;
  const auto ctx = server.context(123456);
  EXPECT_EQ(ctx.utilization, 0.0);
  EXPECT_EQ(ctx.competing_senders, 0.0);
}

TEST(ContextServer, UtilizationConvergesToOfferedLoad) {
  // 15 Mbps path, reports covering the window at ~half capacity.
  ContextServerConfig cfg;
  cfg.window = util::seconds(10);
  ContextServer server(cfg);
  server.set_path_capacity(kPath, 15e6);

  // 10 seconds of transfers, each 1 s long delivering 0.9375 MB
  // (7.5 Mbps each second).
  for (int s = 0; s < 10; ++s) {
    server.report(make_report(1, util::seconds(s), util::seconds(s + 1),
                              937500));
  }
  const auto ctx = server.context(kPath);
  EXPECT_NEAR(ctx.utilization, 0.5, 0.06);
}

TEST(ContextServer, UtilizationWindowExpires) {
  ContextServerConfig cfg;
  cfg.window = util::seconds(10);
  ContextServer server(cfg);
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, 0, util::seconds(1), 1875000));  // 15 Mb
  // A lookup far in the future sees an empty window.
  (void)server.lookup(LookupRequest{kPath, 9, util::seconds(100)});
  EXPECT_NEAR(server.context(kPath).utilization, 0.0, 1e-9);
}

TEST(ContextServer, CountsActiveSenders) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  for (std::uint64_t s = 0; s < 5; ++s)
    (void)server.lookup(LookupRequest{kPath, s, util::seconds(1)});
  EXPECT_GE(server.context(kPath).competing_senders, 5.0);
  // Three finish.
  for (std::uint64_t s = 0; s < 3; ++s)
    server.report(make_report(s, util::seconds(1), util::seconds(2), 1000));
  EXPECT_GE(server.context(kPath).competing_senders, 2.0);
  EXPECT_LT(server.context(kPath).competing_senders, 5.0);
}

TEST(ContextServer, QueueDelayFromRttSpread) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  // min 150 ms, mean 190 ms -> q estimate ~40 ms.
  for (int i = 0; i < 20; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              10000, 0.150, 0.190));
  EXPECT_NEAR(server.context(kPath).queue_delay_s, 0.040, 0.005);
}

TEST(ContextServer, MinRttIsGlobalAcrossReports) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, 0, util::seconds(1), 1000, 0.150, 0.150));
  // Later connections never saw the true floor; spread must use the
  // global minimum (0.15), so q = 0.25 - 0.15 = 0.1.
  for (int i = 1; i < 30; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              1000, 0.25, 0.25));
  EXPECT_NEAR(server.context(kPath).queue_delay_s, 0.1, 0.02);
}

TEST(ContextServer, LossEwma) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  for (int i = 0; i < 30; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              1000, 0.15, 0.18, 0.04));
  EXPECT_NEAR(server.context(kPath).loss_rate, 0.04, 0.005);
}

TEST(ContextServer, RecommendationServedByBucket) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  RecommendationTable table;
  table.set(ContextBucket{0, 0}, tcp::CubicParams{256, 64, 0.2});
  server.set_recommendations(std::move(table));

  const auto reply = server.lookup(LookupRequest{kPath, 1, 0});
  ASSERT_TRUE(reply.has_recommendation);
  EXPECT_EQ(reply.recommended.initial_ssthresh, 256);
  EXPECT_EQ(reply.recommended.window_init, 64);
}

TEST(ContextServer, NoRecommendationWhenTableEmpty) {
  ContextServer server;
  const auto reply = server.lookup(LookupRequest{kPath, 1, 0});
  EXPECT_FALSE(reply.has_recommendation);
}

TEST(ContextServer, VersionBumpsOnReports) {
  ContextServer server;
  EXPECT_EQ(server.state_version(), 0u);
  server.report(make_report(1, 0, util::seconds(1), 1000));
  server.report(make_report(2, 0, util::seconds(1), 1000));
  EXPECT_EQ(server.state_version(), 2u);
  EXPECT_EQ(server.reports(), 2u);
  (void)server.lookup(LookupRequest{kPath, 3, 0});
  EXPECT_EQ(server.lookups(), 1u);
}

TEST(ContextServer, CapacityFallbackFromObservedRate) {
  ContextServer server;  // no capacity configured
  // 8 Mbps delivery observed -> becomes the capacity proxy; subsequent
  // identical load reads as ~full utilization.
  for (int i = 0; i < 10; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              1'000'000));
  EXPECT_GT(server.context(kPath).utilization, 0.5);
}

TEST(ContextServer, PathsAreIsolated) {
  ContextServer server;
  server.set_path_capacity(1, 15e6);
  server.set_path_capacity(2, 15e6);
  Report r = make_report(1, 0, util::seconds(1), 1875000);
  r.path = 1;
  server.report(r);
  EXPECT_GT(server.context(1).utilization, 0.0);
  EXPECT_EQ(server.context(2).utilization, 0.0);
}

TEST(ContextServer, ExternalUtilizationLiftsLocalView) {
  util::Time fake_now = 0;
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  // Local estimate ~0.25; federation says the bottleneck is at 0.8.
  fake_now = util::seconds(10);
  server.report(make_report(1, util::seconds(9), util::seconds(10), 4687500));
  const double local = server.context(kPath).utilization;
  EXPECT_LT(local, 0.5);
  server.set_external_utilization(kPath, 0.8, fake_now, util::seconds(5));
  EXPECT_NEAR(server.context(kPath).utilization, 0.8, 1e-9);
  // The external view expires; the local one remains.
  fake_now = util::seconds(16);
  EXPECT_LT(server.context(kPath).utilization, 0.5);
}

TEST(ContextServer, ExternalUtilizationNeverLowersLocal) {
  util::Time fake_now = util::seconds(10);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  // Local already hot (~1.0); a stale-low federated view must not mask it.
  for (int i = 0; i < 10; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              1875000));
  server.set_external_utilization(kPath, 0.1, fake_now, util::seconds(5));
  EXPECT_GT(server.context(kPath).utilization, 0.5);
}

TEST(ContextServer, DefaultLeaseIsTwiceWindow) {
  ContextServerConfig cfg;
  EXPECT_EQ(cfg.lease, 2 * cfg.window);
}

TEST(ContextServer, CrashedSenderExpiresAfterLease) {
  util::Time fake_now = 0;
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  (void)server.lookup(LookupRequest{kPath, 1, 0});
  EXPECT_GE(server.context(kPath).competing_senders, 1.0);
  // The sender dies without reporting; the default 20-s lease reaps it.
  fake_now = util::seconds(21);
  EXPECT_EQ(server.context(kPath).competing_senders, 0.0);
  EXPECT_EQ(server.expired_leases(), 1u);
}

TEST(ContextServer, ZeroLeaseDisablesLivenessSweep) {
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.lease = 0;
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  (void)server.lookup(LookupRequest{kPath, 1, 0});
  fake_now = util::seconds(100'000);
  EXPECT_GE(server.context(kPath).competing_senders, 1.0);
  EXPECT_EQ(server.expired_leases(), 0u);
}

TEST(ContextServer, UtilizationCountsPartialOverlapAtCutoff) {
  // A 20-s transfer observed at t=20 with a 10-s window: only its second
  // half overlaps, so exactly half the bytes count. 18.75 MB over 20 s on
  // a 15 Mbps path -> u = (18.75e6 * 8 / 2) / (15e6 * 10) = 0.5.
  util::Time fake_now = util::seconds(20);
  ContextServerConfig cfg;
  cfg.window = util::seconds(10);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, 0, util::seconds(20), 18'750'000));
  EXPECT_NEAR(server.context(kPath).utilization, 0.5, 1e-9);
}

TEST(ContextServer, ZeroDurationDeliveryContributesNothing) {
  // An instantaneous report: the span clamps to 1 ns and the in-window
  // overlap fraction is 0 — it must neither divide by zero nor count.
  util::Time fake_now = util::seconds(1);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, util::seconds(1), util::seconds(1),
                            5'000'000));
  EXPECT_EQ(server.context(kPath).utilization, 0.0);
}

TEST(ContextServer, ZeroDurationDeliveryDoesNotSetCapacityFallback) {
  ContextServer server;  // no capacity configured
  server.report(make_report(1, util::seconds(1), util::seconds(1),
                            5'000'000));
  EXPECT_EQ(server.context(kPath).utilization, 0.0);
  // The fallback comes only from a delivery with a real duration: 1 MB/s
  // -> capacity proxy 8 Mbps; over the 10-s window u = 8e6/(8e6*10) = 0.1.
  server.report(make_report(1, util::seconds(1), util::seconds(2),
                            1'000'000));
  EXPECT_NEAR(server.context(kPath).utilization, 0.1, 1e-9);
}

TEST(ContextServer, DeliveryEndingExactlyAtCutoffCountsZero) {
  // end == cutoff survives expiry (strict <) but its overlap is empty.
  util::Time fake_now = util::seconds(20);
  ContextServerConfig cfg;
  cfg.window = util::seconds(10);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, util::seconds(5), util::seconds(10),
                            1'875'000));
  EXPECT_EQ(server.context(kPath).utilization, 0.0);
}

TEST(ContextServer, ClockFunctionDrivesExpiry) {
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.window = util::seconds(5);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, 0, util::seconds(1), 1875000));
  fake_now = util::seconds(2);
  EXPECT_GT(server.context(kPath).utilization, 0.0);
  fake_now = util::seconds(60);
  EXPECT_EQ(server.context(kPath).utilization, 0.0);
}

#ifndef PHI_TELEMETRY_OFF

TEST(ContextServer, CountsFinalReportsWithoutALease) {
  telemetry::MetricRegistry reg;
  telemetry::ScopedRegistry scope(reg);
  ContextServer server;
  (void)server.lookup(LookupRequest{kPath, 1, util::seconds(1)});
  server.report(make_report(1, 0, util::seconds(2), 1000));  // leased
  server.report(make_report(2, 0, util::seconds(2), 1000));  // report-first
  server.report(make_report(1, 0, util::seconds(3), 1000));  // already closed
  Report progress = make_report(3, 0, util::seconds(3), 1000);
  progress.kind = Report::Kind::kProgress;
  server.report(progress);  // opens a lease; never counted
  EXPECT_EQ(reg.counter("phi.context.unleased_reports").value(), 2u);
}

#endif  // PHI_TELEMETRY_OFF

// ---------------------------------------------------------------------------
// Same-instant lookups. The server reuses a path's utilization while
// neither its inputs nor the clock have moved; anything that changes an
// input between two lookups at one instant must show in the second.

TEST(ContextServerCache, ReportBetweenSameInstantLookupsIsSeen) {
  util::Time fake_now = util::seconds(10);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  // 7.5 Mb per report over a 15 Mbps x 10 s window: 0.05 each.
  server.report(make_report(1, util::seconds(8), util::seconds(9), 937'500));
  const auto first = server.lookup(LookupRequest{kPath, 2, fake_now});
  server.report(make_report(3, util::seconds(9), util::seconds(10), 937'500));
  const auto second = server.lookup(LookupRequest{kPath, 4, fake_now});
  EXPECT_NEAR(first.context.utilization, 0.05, 1e-12);
  EXPECT_NEAR(second.context.utilization, 0.10, 1e-12);
}

TEST(ContextServerCache, CapacityChangeBetweenSameInstantLookupsMovesU) {
  util::Time fake_now = util::seconds(10);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, util::seconds(8), util::seconds(9), 937'500));
  const auto first = server.lookup(LookupRequest{kPath, 2, fake_now});
  server.set_path_capacity(kPath, 7.5e6);
  const auto second = server.lookup(LookupRequest{kPath, 3, fake_now});
  EXPECT_NEAR(first.context.utilization, 0.05, 1e-12);
  EXPECT_NEAR(second.context.utilization, 0.10, 1e-12);
}

TEST(ContextServerCache, RestoreBetweenSameInstantLookupsInvalidates) {
  util::Time fake_now = util::seconds(10);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, util::seconds(8), util::seconds(9), 937'500));
  const std::string snapshot = server.serialize_state();
  server.report(make_report(2, util::seconds(9), util::seconds(10), 937'500));
  const auto before = server.lookup(LookupRequest{kPath, 3, fake_now});
  ASSERT_TRUE(server.restore_state(snapshot));
  const auto after = server.lookup(LookupRequest{kPath, 4, fake_now});
  EXPECT_NEAR(before.context.utilization, 0.10, 1e-12);
  EXPECT_NEAR(after.context.utilization, 0.05, 1e-12);
}

// ---------------------------------------------------------------------------
// Lease deadlines. Sweeps are skipped while `now` has not passed a lower
// bound on every deadline; a deadline equal to `now` has not lapsed.

TEST(ContextServerLeases, DeadlineEqualToNowSurvivesOneTick) {
  util::Time fake_now = util::seconds(1);
  ContextServer server({}, [&fake_now] { return fake_now; });  // 20-s lease
  (void)server.lookup(LookupRequest{kPath, 1, fake_now});  // until 21 s
  fake_now = util::seconds(5);
  (void)server.lookup(LookupRequest{kPath, 2, fake_now});  // until 25 s
  fake_now = util::seconds(21);
  EXPECT_EQ(server.active_connections(kPath), 2u);
  fake_now += 1;
  EXPECT_EQ(server.active_connections(kPath), 1u);
  EXPECT_EQ(server.expired_leases(), 1u);
  // Sender 2 lapses too, emptying the path; a progress report then opens
  // a lease for sender 3 from an empty set.
  fake_now = util::seconds(40);
  EXPECT_EQ(server.active_connections(kPath), 0u);
  Report progress = make_report(3, util::seconds(39), fake_now, 1000);
  progress.kind = Report::Kind::kProgress;
  server.report(progress);  // until 60 s
  fake_now = util::seconds(60);
  EXPECT_EQ(server.active_connections(kPath), 1u);
  fake_now += 1;
  EXPECT_EQ(server.active_connections(kPath), 0u);
  EXPECT_EQ(server.expired_leases(), 3u);
}

TEST(ContextServerLeases, LateRenewalBelowEveryDeadlineStillExpires) {
  ContextServer server;  // no clock: each message's timestamp is its now
  (void)server.lookup(LookupRequest{kPath, 1, util::seconds(10)});  // 30 s
  // A progress report stamped 5 s, delivered late, renews sender 2 until
  // 25 s: earlier than every lease the server held before it.
  Report progress = make_report(2, util::seconds(4), util::seconds(5), 1000);
  progress.kind = Report::Kind::kProgress;
  server.report(progress);
  EXPECT_EQ(server.gc(util::seconds(25)), 0u);
  EXPECT_EQ(server.gc(util::seconds(25) + 1), 1u);
  EXPECT_EQ(server.active_connections(kPath), 1u);
  EXPECT_EQ(server.gc(util::seconds(30)), 0u);
  EXPECT_EQ(server.gc(util::seconds(30) + 1), 1u);
  EXPECT_EQ(server.expired_leases(), 2u);
}

// ---------------------------------------------------------------------------
// Exactness against an uncached reference. The model below keeps every
// delivery it was told about and rescans the whole list on every query,
// and it sweeps its lease map on every message; the server must agree
// with it bit for bit on utilization, open connections, the smoothed
// sender count, and the expiry total.

class ReferenceServer {
 public:
  ReferenceServer(ContextServerConfig cfg, const util::Time* clock)
      : cfg_(cfg), clock_(clock) {}

  void set_path_capacity(PathKey path, double bps) {
    paths_[path].capacity = bps;
  }

  void set_external_utilization(PathKey path, double u, util::Time at,
                                util::Duration ttl) {
    Path& p = paths_[path];
    p.external_u = std::clamp(u, 0.0, 1.0);
    p.external_at = at;
    p.external_ttl = ttl;
  }

  CongestionContext lookup(const LookupRequest& req) {
    last_ = std::max(last_, req.at);
    Path& p = paths_[req.path];
    const util::Time now = now_or(req.at);
    sweep(p, now);
    p.active[req.sender_id] = now + cfg_.lease;
    p.senders.add(static_cast<double>(p.active.size()));
    return *context(req.path);
  }

  void report(const Report& r) {
    last_ = std::max(last_, r.ended);
    Path& p = paths_[r.path];
    const util::Time now = now_or(r.ended);
    sweep(p, now);
    if (r.kind == Report::Kind::kFinal) {
      p.active.erase(r.sender_id);
    } else {
      p.active[r.sender_id] = now + cfg_.lease;
    }
    p.deliveries.push_back(r);
    if (p.capacity <= 0.0 && r.duration_s() > 0.0)
      p.capacity = static_cast<double>(r.bytes) * 8.0 / r.duration_s();
  }

  std::size_t gc(util::Time now) {
    std::size_t expired = 0;
    for (auto& [key, p] : paths_) expired += sweep(p, now);
    return expired;
  }

  std::size_t active_connections(PathKey path) {
    auto it = paths_.find(path);
    if (it == paths_.end()) return 0;
    sweep(it->second, now_or(last_));
    return it->second.active.size();
  }

  std::optional<CongestionContext> context(PathKey path) {
    auto it = paths_.find(path);
    if (it == paths_.end()) return std::nullopt;
    Path& p = it->second;
    const util::Time now = now_or(last_);
    sweep(p, now);
    CongestionContext ctx;
    ctx.utilization = utilization(p, now);
    if (p.external_u >= 0.0 && now - p.external_at <= p.external_ttl)
      ctx.utilization = std::max(ctx.utilization, p.external_u);
    ctx.competing_senders = std::max(static_cast<double>(p.active.size()),
                                     p.senders.value());
    return ctx;
  }

  std::uint64_t expired_leases() const { return expired_; }

 private:
  struct Path {
    double capacity = 0.0;
    std::vector<Report> deliveries;  // every report absorbed, in order
    std::map<std::uint64_t, util::Time> active;
    util::Ewma senders{0.3};
    double external_u = -1.0;
    util::Time external_at = 0;
    util::Duration external_ttl = 0;
  };

  util::Time now_or(util::Time fallback) const {
    return clock_ != nullptr ? *clock_ : fallback;
  }

  std::size_t sweep(Path& p, util::Time now) {
    std::size_t expired = 0;
    for (auto it = p.active.begin(); it != p.active.end();) {
      if (it->second < now) {
        it = p.active.erase(it);
        ++expired;
      } else {
        ++it;
      }
    }
    if (expired > 0) p.senders.force(static_cast<double>(p.active.size()));
    expired_ += expired;
    return expired;
  }

  // Transfers deliver uniformly over their lifetime; count the part that
  // overlaps (now - window, now]. Long-expired entries add exactly 0.
  double utilization(const Path& p, util::Time now) const {
    if (p.capacity <= 0.0) return 0.0;
    const util::Time cutoff = now - cfg_.window;
    double bits = 0.0;
    for (const Report& d : p.deliveries) {
      const util::Time span = std::max<util::Time>(d.ended - d.started, 1);
      const double frac =
          static_cast<double>(d.ended - std::max(d.started, cutoff)) /
          static_cast<double>(span);
      bits += static_cast<double>(d.bytes) * 8.0 * std::clamp(frac, 0.0, 1.0);
    }
    return std::clamp(bits / (p.capacity * util::to_seconds(cfg_.window)),
                      0.0, 1.0);
  }

  ContextServerConfig cfg_;
  const util::Time* clock_;
  std::map<PathKey, Path> paths_;
  util::Time last_ = 0;
  std::uint64_t expired_ = 0;
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Drives `ops` random operations against a server and the reference,
/// with or without a clock, checking them against each other after every
/// lookup and every query.
void run_exactness(std::uint64_t seed, bool with_clock, int ops) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " clock "
                                  << with_clock);
  constexpr PathKey kPaths = 3;
  constexpr std::uint64_t kSenders = 24;
  ContextServerConfig cfg;
  cfg.window = util::seconds(2);
  cfg.lease = util::seconds(3);
  util::Time now = util::seconds(1);
  ContextServer server(cfg, with_clock
                                ? std::function<util::Time()>(
                                      [&now] { return now; })
                                : nullptr);
  ReferenceServer ref(cfg, with_clock ? &now : nullptr);
  util::Rng rng(seed);
  const double capacities[] = {0.0, 5e6, 15e6, 40e6};
  for (PathKey p = 0; p < kPaths; ++p) {
    server.set_path_capacity(p, 15e6);
    ref.set_path_capacity(p, 15e6);
  }

  const auto check_context = [&](PathKey path) {
    const auto got = server.context(path);
    const auto want = ref.context(path).value_or(CongestionContext{});
    EXPECT_EQ(bits_of(got.utilization), bits_of(want.utilization));
    EXPECT_EQ(bits_of(got.competing_senders),
              bits_of(want.competing_senders));
  };

  int lookups = 0;
  for (int op = 0; op < ops; ++op) {
    const PathKey path = rng.below(kPaths);
    const std::uint64_t sender = rng.below(kSenders);
    const std::uint64_t pick = rng.below(100);
    if (pick < 30) {
      // A report whose delivery is ordinary, zero-length, straddles the
      // window cutoff, arrives out of order, or ends exactly at the
      // cutoff.
      const util::Time cutoff = now - cfg.window;
      Report r;
      r.path = path;
      r.sender_id = sender;
      r.bytes = rng.range(1, 2'000'000);
      r.min_rtt_s = 0.01;
      r.mean_rtt_s = 0.012;
      switch (rng.below(5)) {
        case 0:
          r.ended = now;
          r.started = now - rng.range(util::kMillisecond, util::seconds(1));
          break;
        case 1:
          r.ended = now - rng.range(0, util::milliseconds(500));
          r.started = r.ended;
          break;
        case 2:
          r.ended = cutoff + rng.range(1, util::milliseconds(500));
          r.started = cutoff - rng.range(1, util::seconds(1));
          break;
        case 3:
          r.ended = now - rng.range(1, cfg.window + util::seconds(1));
          r.started = r.ended - rng.range(0, util::seconds(1));
          break;
        default:
          r.ended = cutoff;
          r.started = cutoff - rng.range(1, util::seconds(1));
          break;
      }
      r.kind = rng.bernoulli(0.3) ? Report::Kind::kProgress
                                  : Report::Kind::kFinal;
      server.report(r);
      ref.report(r);
    } else if (pick < 62) {
      const LookupRequest req{path, sender, now};
      const auto got = server.lookup(req);
      const auto want = ref.lookup(req);
      ++lookups;
      EXPECT_EQ(bits_of(got.context.utilization), bits_of(want.utilization));
      EXPECT_EQ(bits_of(got.context.competing_senders),
                bits_of(want.competing_senders));
      EXPECT_EQ(server.active_connections(path),
                ref.active_connections(path));
      EXPECT_EQ(server.expired_leases(), ref.expired_leases());
    } else if (pick < 78) {
      now += rng.bernoulli(0.1)
                 ? rng.range(util::seconds(2), util::seconds(4))
                 : rng.range(0, util::milliseconds(300));
    } else if (pick < 84) {
      const double bps = capacities[rng.below(4)];
      server.set_path_capacity(path, bps);
      ref.set_path_capacity(path, bps);
    } else if (pick < 88) {
      EXPECT_EQ(server.gc(now), ref.gc(now));
    } else if (pick < 93) {
      EXPECT_EQ(server.active_connections(path),
                ref.active_connections(path));
    } else if (pick < 98) {
      check_context(path);
    } else {
      const double u = rng.uniform();
      const util::Duration ttl = rng.range(0, util::seconds(2));
      server.set_external_utilization(path, u, now, ttl);
      ref.set_external_utilization(path, u, now, ttl);
    }
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(server.expired_leases(), ref.expired_leases());
  // The mix must really exercise what it claims to.
  EXPECT_GT(lookups, ops / 4);
  EXPECT_GT(ref.expired_leases(), 0u);
}

TEST(ContextServerExactness, MatchesUncachedReferenceWithClock) {
  for (std::uint64_t seed : {1u, 2u, 3u}) run_exactness(seed, true, 4000);
}

TEST(ContextServerExactness, MatchesUncachedReferenceWithoutClock) {
  for (std::uint64_t seed : {4u, 5u, 6u}) run_exactness(seed, false, 4000);
}

}  // namespace
}  // namespace phi::core
