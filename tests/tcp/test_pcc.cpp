#include <gtest/gtest.h>

#include <memory>

#include "sim/topology.hpp"
#include "tcp/pcc.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::tcp {
namespace {

TEST(PccUtility, PenalizesLoss) {
  const double clean = Pcc::utility(10e6, 0.0, 0.0);
  const double light = Pcc::utility(10e6, 0.0, 0.02);
  const double heavy = Pcc::utility(10e6, 0.0, 0.10);
  EXPECT_GT(clean, light);
  EXPECT_GT(light, heavy);
  EXPECT_LT(heavy, 0.0);  // heavy loss drives utility negative
}

TEST(PccUtility, PenalizesRttGrowth) {
  const double flat = Pcc::utility(10e6, 0.0, 0.0);
  const double rising = Pcc::utility(10e6, 0.01, 0.0);
  const double falling = Pcc::utility(10e6, -0.05, 0.0);
  EXPECT_GT(flat, rising);
  EXPECT_EQ(flat, falling);  // only growth is penalized
}

TEST(PccUtility, MoreThroughputBetterWhenClean) {
  EXPECT_GT(Pcc::utility(20e6, 0.0, 0.0), Pcc::utility(10e6, 0.0, 0.0));
}

TEST(Pcc, PacingGapMatchesRate) {
  Pcc::Params p;
  p.initial_rate_bps = 12e6;  // 1500 B / 12 Mbps = 1 ms per packet
  Pcc cc(p);
  cc.reset(0);
  EXPECT_EQ(cc.min_send_gap(0), util::milliseconds(1));
}

TEST(Pcc, StartupDoublesUntilUtilityDrops) {
  Pcc cc;
  cc.reset(0);
  EXPECT_TRUE(cc.in_startup());
  EXPECT_NEAR(cc.rate_bps(), 2e6, 1);
}

TEST(Pcc, ConvergesNearLinkRateAlone) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<Pcc>());
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  sender.start_connection(10'000'000, [](const ConnStats&) {});
  d.net().run_until(util::seconds(60));
  const double goodput =
      static_cast<double>(sender.lifetime_acked_segments()) *
      sim::kDefaultMss * 8.0 / 60.0;
  // Within [60%, 101%] of the 15 Mbps bottleneck after the search settles.
  EXPECT_GT(goodput, 0.60 * cfg.bottleneck_rate);
  EXPECT_LT(goodput, 1.01 * cfg.bottleneck_rate);
  const auto* cc = dynamic_cast<const Pcc*>(&sender.cc());
  ASSERT_NE(cc, nullptr);
  EXPECT_FALSE(cc->in_startup());
  EXPECT_LT(cc->rate_bps(), 1.6 * cfg.bottleneck_rate);
}

TEST(Pcc, UtilityKeepsLossModest) {
  // The sigmoid penalty should keep sustained loss at the bottleneck far
  // below the knee once converged.
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<Pcc>());
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  sender.start_connection(10'000'000, [](const ConnStats&) {});
  d.net().run_until(util::seconds(30));
  d.path_link(0).reset_stats();  // measure steady state only
  d.net().run_until(util::seconds(60));
  EXPECT_LT(d.path_link(0).queue().stats().drop_rate(), 0.05);
}

TEST(Pcc, CompletesFixedTransfer) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<Pcc>());
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  bool done = false;
  ConnStats stats;
  sender.start_connection(3000, [&](const ConnStats& s) {
    done = true;
    stats = s;
  });
  d.net().run_until(util::seconds(120));
  ASSERT_TRUE(done);
  EXPECT_EQ(stats.segments, 3000);
  EXPECT_EQ(sink.next_expected(), 3000);
}

TEST(Pcc, SharesWithASecondPccFlow) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 2;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  tcp::TcpSender a(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 1,
                   std::make_unique<Pcc>());
  tcp::TcpSink sa(d.scheduler(), *d.endpoint(0).rx, 1);
  tcp::TcpSender b(d.scheduler(), *d.endpoint(1).tx, d.endpoint(1).rx->id(), 2,
                   std::make_unique<Pcc>());
  tcp::TcpSink sb(d.scheduler(), *d.endpoint(1).rx, 2);
  a.start_connection(10'000'000, [](const ConnStats&) {});
  b.start_connection(10'000'000, [](const ConnStats&) {});
  d.net().run_until(util::seconds(90));
  const double ga = static_cast<double>(a.lifetime_acked_segments());
  const double gb = static_cast<double>(b.lifetime_acked_segments());
  // Both make real progress (no starvation).
  EXPECT_GT(ga, 0.15 * (ga + gb));
  EXPECT_GT(gb, 0.15 * (ga + gb));
  // Aggregate does not overrun the link.
  EXPECT_LT((ga + gb) * sim::kDefaultMss * 8.0 / 90.0,
            cfg.bottleneck_rate * 1.01);
}

}  // namespace
}  // namespace phi::tcp
