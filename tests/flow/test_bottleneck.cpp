#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "flow/bottleneck.hpp"

#include "tcp/app.hpp"
#include "sim/parking_lot.hpp"
#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "util/rng.hpp"

namespace phi::flow {
namespace {

TEST(DelaySeries, BinningAveragesAndLeavesGapsNan) {
  DelaySeries s;
  s.add(util::milliseconds(50), 1.0);
  s.add(util::milliseconds(60), 3.0);
  s.add(util::milliseconds(250), 5.0);
  const auto bins =
      s.binned(util::milliseconds(100), 0, util::milliseconds(300));
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_NEAR(bins[0], 2.0, 1e-12);
  EXPECT_TRUE(std::isnan(bins[1]));
  EXPECT_NEAR(bins[2], 5.0, 1e-12);
  EXPECT_EQ(s.min_delay_s(), 1.0);
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> a{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> b{2, 4, 6, 8, 10, 12, 14, 16};
  const auto r = pearson(a, b, 8);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 1.0, 1e-9);
}

TEST(Pearson, PerfectAnticorrelation) {
  std::vector<double> a{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> b{8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_NEAR(*pearson(a, b, 8), -1.0, 1e-9);
}

TEST(Pearson, NanPositionsSkipped) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> a{1, nan, 3, 4, nan, 6, 7, 8, 9, 10};
  std::vector<double> b{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto r = pearson(a, b, 8);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 1.0, 1e-9);
}

TEST(Pearson, InsufficientOverlapIsNull) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{1, 2, 3};
  EXPECT_FALSE(pearson(a, b, 8).has_value());
}

TEST(Pearson, ConstantSeriesIsNull) {
  std::vector<double> a(20, 5.0);
  std::vector<double> b{1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                        11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  EXPECT_FALSE(pearson(a, b, 8).has_value());
}

TEST(Detector, SyntheticSharedVsIndependent) {
  // Flows 1,2 follow the same (noisy) queue trajectory; flow 3 follows an
  // independent one.
  util::Rng rng(9);
  SharedBottleneckDetector det;
  double q_shared = 0.05, q_other = 0.05;
  for (int i = 0; i < 400; ++i) {
    const util::Time t = i * util::milliseconds(100);
    q_shared = std::max(0.0, q_shared + rng.normal(0, 0.01));
    q_other = std::max(0.0, q_other + rng.normal(0, 0.01));
    det.record(1, t, q_shared + rng.normal(0, 0.002));
    det.record(2, t, q_shared + rng.normal(0, 0.002));
    det.record(3, t, q_other + rng.normal(0, 0.002));
  }
  const auto r12 = det.correlation(1, 2);
  const auto r13 = det.correlation(1, 3);
  ASSERT_TRUE(r12.has_value());
  ASSERT_TRUE(r13.has_value());
  EXPECT_GT(*r12, 0.8);
  EXPECT_LT(*r13, *r12);

  const auto clusters = det.cluster();
  // 1 and 2 end up together.
  bool together = false;
  for (const auto& c : clusters) {
    const bool has1 = std::count(c.begin(), c.end(), 1u) > 0;
    const bool has2 = std::count(c.begin(), c.end(), 2u) > 0;
    if (has1 && has2) together = true;
  }
  EXPECT_TRUE(together);
}

TEST(Detector, EndToEndDumbbellFlowsCluster) {
  // Four real TCP flows through one bottleneck: their RTT spreads must
  // correlate and cluster into a single group.
  sim::DumbbellConfig cfg;
  cfg.pairs = 4;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  SharedBottleneckDetector det;

  struct TracingSink : tcp::TcpSink {
    using TcpSink::TcpSink;
  };
  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
  for (std::size_t i = 0; i < 4; ++i) {
    const sim::FlowId flow = 10 + i;
    senders.push_back(std::make_unique<tcp::TcpSender>(
        d.scheduler(), *d.endpoint(i).tx, d.endpoint(i).rx->id(), flow,
        std::make_unique<tcp::Cubic>(tcp::CubicParams{64, 8, 0.2})));
    sinks.push_back(std::make_unique<tcp::TcpSink>(d.scheduler(),
                                                   *d.endpoint(i).rx, flow));
    senders.back()->start_connection(1'000'000, [](const tcp::ConnStats&) {});
  }
  // Sample each sender's smoothed RTT spread every 100 ms.
  std::function<void()> sample = [&] {
    for (std::size_t i = 0; i < 4; ++i) {
      const auto& rtt = senders[i]->rtt();
      if (rtt.has_sample()) {
        det.record(10 + i, d.scheduler().now(),
                   util::to_seconds(rtt.srtt() - rtt.min_rtt()));
      }
    }
    if (d.scheduler().now() < util::seconds(40))
      d.scheduler().schedule_in(util::milliseconds(100), sample);
  };
  d.scheduler().schedule_in(util::milliseconds(100), sample);
  d.net().run_until(util::seconds(40));

  const auto clusters = det.cluster();
  ASSERT_EQ(det.flows(), 4u);
  EXPECT_EQ(clusters.size(), 1u) << "expected one shared-bottleneck group";
}

TEST(Detector, ParkingLotHopsSeparate) {
  // Randomized on/off cross traffic loads each hop independently; two
  // probe flows per hop track their hop's queue. Same-hop correlations
  // must exceed cross-hop ones (with symmetric persistent workloads the
  // two queues would evolve identically and the technique, like any
  // passive delay-correlation method, would have no signal).
  sim::ParkingLotConfig cfg;
  cfg.hops = 2;
  cfg.cross_per_hop = 4;
  sim::GraphTopology lot(sim::parking_lot_graph(cfg));
  SharedBottleneckDetector det;

  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
  std::vector<std::unique_ptr<tcp::OnOffApp>> apps;
  std::vector<std::uint64_t> probe_ids;
  std::vector<tcp::TcpSender*> probes;
  for (std::size_t h = 0; h < 2; ++h) {
    for (std::size_t i = 0; i < 4; ++i) {
      const sim::FlowId flow = 100 * (h + 1) + i;
      const sim::Topology::Endpoint ep = lot.endpoint(h * 4 + i);
      senders.push_back(std::make_unique<tcp::TcpSender>(
          lot.scheduler(), *ep.tx, ep.rx->id(), flow,
          std::make_unique<tcp::Cubic>(tcp::CubicParams{64, 8, 0.2})));
      sinks.push_back(
          std::make_unique<tcp::TcpSink>(lot.scheduler(), *ep.rx, flow));
      if (i < 2) {
        // Probes: long-running flows whose RTT tracks the hop queue.
        senders.back()->start_connection(1'000'000,
                                         [](const tcp::ConnStats&) {});
        probe_ids.push_back(flow);
        probes.push_back(senders.back().get());
      } else {
        // Load: bursty on/off traffic, independent per hop.
        tcp::OnOffConfig oc;
        oc.mean_on_bytes = 600e3;
        oc.mean_off_s = 1.0;
        apps.push_back(std::make_unique<tcp::OnOffApp>(
            lot.scheduler(), *senders.back(), oc, 7000 + flow));
        apps.back()->start();
      }
    }
  }
  std::function<void()> sample = [&] {
    for (std::size_t k = 0; k < probes.size(); ++k) {
      const auto& rtt = probes[k]->rtt();
      if (rtt.has_sample())
        det.record(probe_ids[k], lot.scheduler().now(),
                   util::to_seconds(rtt.srtt() - rtt.min_rtt()));
    }
    if (lot.scheduler().now() < util::seconds(60))
      lot.scheduler().schedule_in(util::milliseconds(100), sample);
  };
  lot.scheduler().schedule_in(util::milliseconds(100), sample);
  lot.net().run_until(util::seconds(60));

  const double hop0 = det.correlation(100, 101).value_or(0.0);
  const double hop1 = det.correlation(200, 201).value_or(0.0);
  const double cross_a = det.correlation(100, 200).value_or(0.0);
  const double cross_b = det.correlation(101, 201).value_or(0.0);
  EXPECT_GT(hop0, cross_a);
  EXPECT_GT(hop0, cross_b);
  EXPECT_GT(hop1, cross_a);
  EXPECT_GT(hop1, cross_b);
}

}  // namespace
}  // namespace phi::flow
