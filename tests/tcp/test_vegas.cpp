#include <gtest/gtest.h>

#include <memory>

#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "tcp/vegas.hpp"

namespace phi::tcp {
namespace {

TEST(Vegas, ResetState) {
  Vegas cc;
  cc.reset(0);
  EXPECT_EQ(cc.window(), 2.0);
  EXPECT_EQ(cc.name(), "vegas");
}

TEST(Vegas, GrowsWhileUncongested) {
  Vegas cc;
  cc.reset(0);
  util::Time now = 0;
  // Constant RTT at the propagation floor: diff stays 0 -> growth.
  for (int i = 0; i < 2000; ++i) {
    now += util::milliseconds(1);
    cc.on_ack(1, 0.100, now);
  }
  EXPECT_GT(cc.window(), 10.0);
}

TEST(Vegas, StopsGrowingWhenQueueBuilds) {
  Vegas cc;
  cc.reset(0);
  util::Time now = 0;
  // Base RTT 100 ms established first.
  cc.on_ack(1, 0.100, now += util::milliseconds(1));
  // Then every RTT is 50% above base: diff = cwnd/3 > beta once cwnd > 12.
  double prev = 0;
  for (int i = 0; i < 5000; ++i) {
    now += util::milliseconds(1);
    cc.on_ack(1, 0.150, now);
    prev = cc.window();
  }
  // Settles near the alpha/beta band instead of growing unboundedly:
  // diff = w/3 in [2,4] -> w in [6,12].
  EXPECT_LT(prev, 20.0);
  EXPECT_GE(prev, 2.0);
}

TEST(Vegas, LossCutsGently) {
  Vegas cc;
  cc.reset(0);
  util::Time now = 0;
  for (int i = 0; i < 1000; ++i)
    cc.on_ack(1, 0.1, now += util::milliseconds(1));
  const double before = cc.window();
  cc.on_loss_event(now, 0);
  EXPECT_NEAR(cc.window(), before * 0.75, 1e-6);
}

TEST(Vegas, TimeoutRestartsSlowStart) {
  Vegas cc;
  cc.reset(0);
  util::Time now = 0;
  for (int i = 0; i < 1000; ++i)
    cc.on_ack(1, 0.1, now += util::milliseconds(1));
  cc.on_timeout(now, 0);
  EXPECT_EQ(cc.window(), 2.0);
}

TEST(Vegas, KeepsQueueShorterThanCubic) {
  // The headline property: a Vegas flow on an empty path holds far less
  // standing queue than default Cubic.
  auto run = [](std::unique_ptr<CongestionControl> cc) {
    sim::DumbbellConfig cfg;
    cfg.pairs = 1;
    sim::GraphTopology d(sim::dumbbell_graph(cfg));
    TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                     d.endpoint(0).rx->id(), 1,
                     std::move(cc));
    TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
    sender.start_connection(10000, [](const ConnStats&) {});
    d.net().run_until(util::seconds(40));
    return d.path_link(0).queueing_delay().count() > 0
               ? d.path_link(0).queueing_delay().mean()
               : 0.0;
  };
  const double vegas_q = run(std::make_unique<Vegas>());
  const double cubic_q = run(std::make_unique<Cubic>());
  EXPECT_LT(vegas_q, cubic_q * 0.5 + 1e-6);
}

TEST(Vegas, CompletesTransfersEndToEnd) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  TcpSender sender(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 1,
                   std::make_unique<Vegas>());
  TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  bool done = false;
  ConnStats stats;
  sender.start_connection(2000, [&](const ConnStats& s) {
    done = true;
    stats = s;
  });
  d.net().run_until(util::seconds(120));
  ASSERT_TRUE(done);
  EXPECT_EQ(stats.segments, 2000);
  EXPECT_GT(stats.throughput_bps(), 0.5 * util::kMbps);
}

}  // namespace
}  // namespace phi::tcp
