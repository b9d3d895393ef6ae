#include <gtest/gtest.h>

#include <memory>

#include "sim/parking_lot.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::sim {
namespace {

TEST(ParkingLot, RejectsZeroHops) {
  ParkingLotConfig cfg;
  cfg.hops = 0;
  EXPECT_THROW((void)parking_lot_graph(cfg), std::invalid_argument);
}

TEST(ParkingLot, LongPathTraversesAllHops) {
  ParkingLotConfig cfg;
  cfg.hops = 3;
  cfg.cross_per_hop = 1;
  cfg.long_flows = 1;
  GraphTopology lot(parking_lot_graph(cfg));
  // The long flow follows the hops * cross_per_hop cross pairs.
  const Topology::Endpoint longest = lot.endpoint(3);

  struct Probe : Agent {
    util::Time arrived = -1;
    Scheduler* sched;
    void on_packet(const Packet&) override { arrived = sched->now(); }
  } probe;
  probe.sched = &lot.scheduler();
  longest.rx->attach(1, &probe);

  Packet p;
  p.src = longest.tx->id();
  p.dst = longest.rx->id();
  p.flow = 1;
  longest.tx->send(p);
  lot.net().run_until(util::seconds(2));

  // 3 hops x 20 ms + 2 edges x 1 ms + serialization.
  ASSERT_GE(probe.arrived, util::milliseconds(62));
  EXPECT_LE(probe.arrived, util::milliseconds(70));
  longest.rx->detach(1);
}

TEST(ParkingLot, CrossTrafficUsesOnlyItsHop) {
  ParkingLotConfig cfg;
  cfg.hops = 2;
  cfg.cross_per_hop = 1;
  GraphTopology lot(parking_lot_graph(cfg));
  // Cross pair (hop 1, 0) is endpoint 1 * cross_per_hop + 0.
  const Topology::Endpoint cross = lot.endpoint(1);

  struct Probe : Agent {
    int count = 0;
    void on_packet(const Packet&) override { ++count; }
  } probe;
  cross.rx->attach(9, &probe);

  const auto hop0_before = lot.path_link(0).packets_transmitted();
  Packet p;
  p.src = cross.tx->id();
  p.dst = cross.rx->id();
  p.flow = 9;
  cross.tx->send(p);
  lot.net().run_until(util::seconds(1));

  EXPECT_EQ(probe.count, 1);
  EXPECT_EQ(lot.path_link(0).packets_transmitted(), hop0_before);
  EXPECT_GT(lot.path_link(1).packets_transmitted(), 0u);
  cross.rx->detach(9);
}

TEST(ParkingLot, ReverseAcksFlow) {
  // A full TCP transfer across the chain works (ACKs route backwards).
  ParkingLotConfig cfg;
  cfg.hops = 2;
  cfg.cross_per_hop = 1;
  cfg.long_flows = 1;
  GraphTopology lot(parking_lot_graph(cfg));
  const Topology::Endpoint longest = lot.endpoint(2);
  tcp::TcpSender sender(lot.scheduler(), *longest.tx, longest.rx->id(), 1,
                        std::make_unique<tcp::Cubic>(
                            tcp::CubicParams{64, 8, 0.2}));
  tcp::TcpSink sink(lot.scheduler(), *longest.rx, 1);
  bool done = false;
  sender.start_connection(500, [&](const tcp::ConnStats&) { done = true; });
  lot.net().run_until(util::seconds(60));
  EXPECT_TRUE(done);
}

TEST(ParkingLot, HopsCarryIndependentLoad) {
  // Load hop 0 only; hop 1 stays idle -> its monitor reads ~0.
  ParkingLotConfig cfg;
  cfg.hops = 2;
  cfg.cross_per_hop = 2;
  GraphTopology lot(parking_lot_graph(cfg));
  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
  for (std::size_t i = 0; i < 2; ++i) {
    const FlowId flow = 100 + i;
    const Topology::Endpoint ep = lot.endpoint(i);  // hop 0's cross pairs
    senders.push_back(std::make_unique<tcp::TcpSender>(
        lot.scheduler(), *ep.tx, ep.rx->id(), flow,
        std::make_unique<tcp::Cubic>(tcp::CubicParams{64, 8, 0.2})));
    sinks.push_back(
        std::make_unique<tcp::TcpSink>(lot.scheduler(), *ep.rx, flow));
    senders.back()->start_connection(100000, [](const tcp::ConnStats&) {});
  }
  lot.net().run_until(util::seconds(20));
  EXPECT_GT(lot.path_monitor(0).recent_utilization(), 0.5);
  EXPECT_LT(lot.path_monitor(1).recent_utilization(), 0.05);
}

}  // namespace
}  // namespace phi::sim
