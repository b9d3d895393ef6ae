#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "sim/fq.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace phi::sim {
namespace {

struct Probe : Agent {
  util::Time arrived = -1;
  std::uint64_t count = 0;
  Scheduler* sched = nullptr;
  void on_packet(const Packet&) override {
    arrived = sched->now();
    ++count;
  }
};

TEST(Dumbbell, BufferIsFiveTimesBdp) {
  DumbbellConfig cfg;
  cfg.bottleneck_rate = 15.0 * util::kMbps;
  cfg.rtt = util::milliseconds(150);
  cfg.buffer_bdp_multiple = 5.0;
  GraphTopology d(dumbbell_graph(cfg));
  // BDP = 281250 bytes; x5 = 1406250, in both directions.
  EXPECT_EQ(d.path_link(0).queue().capacity_bytes(), 1406250);
  const Link& rev = *d.net().links().at(1);
  EXPECT_EQ(rev.name(), "bottleneck-rev");
  EXPECT_EQ(rev.queue().capacity_bytes(), 1406250);
}

TEST(Dumbbell, OneWayDeliveryMatchesConfiguredRtt) {
  DumbbellConfig cfg;
  cfg.pairs = 2;
  cfg.rtt = util::milliseconds(150);
  GraphTopology d(dumbbell_graph(cfg));

  Probe probe;
  probe.sched = &d.scheduler();
  d.endpoint(1).rx->attach(5, &probe);

  Packet p;
  p.src = d.endpoint(1).tx->id();
  p.dst = d.endpoint(1).rx->id();
  p.flow = 5;
  p.size_bytes = kSegmentBytes;
  d.endpoint(1).tx->send(p);
  d.net().run_until(util::seconds(1));

  ASSERT_GT(probe.count, 0u);
  // One-way propagation is rtt/2; serialization adds a little.
  EXPECT_GE(probe.arrived, util::milliseconds(75));
  EXPECT_LE(probe.arrived, util::milliseconds(78));
  d.endpoint(1).rx->detach(5);
}

TEST(Dumbbell, ReversePathWorks) {
  DumbbellConfig cfg;
  cfg.pairs = 3;
  GraphTopology d(dumbbell_graph(cfg));
  Probe probe;
  probe.sched = &d.scheduler();
  d.endpoint(2).tx->attach(9, &probe);

  Packet p;
  p.src = d.endpoint(2).rx->id();
  p.dst = d.endpoint(2).tx->id();
  p.flow = 9;
  p.size_bytes = kAckBytes;
  d.endpoint(2).rx->send(p);
  d.net().run_until(util::seconds(1));
  EXPECT_EQ(probe.count, 1u);
  d.endpoint(2).tx->detach(9);
}

TEST(Dumbbell, CrossPairIsolation) {
  // Packets for pair 0 must not arrive at receiver 1's agents.
  DumbbellConfig cfg;
  cfg.pairs = 2;
  GraphTopology d(dumbbell_graph(cfg));
  Probe right, wrong;
  right.sched = wrong.sched = &d.scheduler();
  d.endpoint(0).rx->attach(1, &right);
  d.endpoint(1).rx->attach(1, &wrong);

  Packet p;
  p.src = d.endpoint(0).tx->id();
  p.dst = d.endpoint(0).rx->id();
  p.flow = 1;
  d.endpoint(0).tx->send(p);
  d.net().run_until(util::seconds(1));
  EXPECT_EQ(right.count, 1u);
  EXPECT_EQ(wrong.count, 0u);
  d.endpoint(0).rx->detach(1);
  d.endpoint(1).rx->detach(1);
}

TEST(Dumbbell, RejectsZeroPairs) {
  DumbbellConfig cfg;
  cfg.pairs = 0;
  EXPECT_THROW((void)dumbbell_graph(cfg), std::invalid_argument);
}

TEST(Dumbbell, RejectsRttSmallerThanEdgeDelays) {
  DumbbellConfig cfg;
  cfg.rtt = util::milliseconds(2);
  cfg.edge_delay = util::milliseconds(1);
  EXPECT_THROW((void)dumbbell_graph(cfg), std::invalid_argument);
}

const char* queue_kind(const QueueDisc& q) {
  if (dynamic_cast<const RedQueue*>(&q) != nullptr) return "red";
  if (dynamic_cast<const DrrQueue*>(&q) != nullptr) return "drr";
  if (dynamic_cast<const DropTailDisc*>(&q) != nullptr) return "droptail";
  return "?";
}

/// What a built topology is, in creation order: node names by id, one
/// "src->dst name Mbps delay_us queue capacity" row per link (node ids),
/// the link index of every path, and every endpoint's (tx, rx) node ids.
struct BuildOrder {
  std::vector<std::string> nodes;
  std::vector<std::string> links;
  std::vector<std::size_t> paths;
  std::vector<std::pair<NodeId, NodeId>> endpoints;
};

BuildOrder build_order(Topology& t) {
  BuildOrder out;
  Network& net = t.net();
  for (NodeId i = 0; i < net.node_count(); ++i)
    out.nodes.push_back(net.node(i).name());
  for (std::size_t i = 0; i < net.links().size(); ++i) {
    Link& l = *net.links()[i];
    char row[160];
    std::snprintf(row, sizeof row, "%u->%u %s %g %lld %s %lld",
                  static_cast<unsigned>(net.link_src(i)),
                  static_cast<unsigned>(l.destination().id()),
                  l.name().c_str(), l.rate() / util::kMbps,
                  static_cast<long long>(l.propagation_delay() /
                                         util::microseconds(1)),
                  queue_kind(l.queue()),
                  static_cast<long long>(l.queue().capacity_bytes()));
    out.links.emplace_back(row);
  }
  for (std::size_t p = 0; p < t.path_count(); ++p)
    for (std::size_t i = 0; i < net.links().size(); ++i)
      if (net.links()[i].get() == &t.path_link(p)) out.paths.push_back(i);
  for (std::size_t i = 0; i < t.endpoint_count(); ++i)
    out.endpoints.emplace_back(t.endpoint(i).tx->id(),
                               t.endpoint(i).rx->id());
  return out;
}

// Node ids, link order and monitor order fix the shard plan and the event
// sequence numbers, so every golden depends on this exact build order.
TEST(Topology, GeneratedDumbbellAndParkingLotKeepTheBuildOrder) {
  {
    const auto t = make_topology(DumbbellConfig{.pairs = 2});
    const BuildOrder b = build_order(*t);
    EXPECT_EQ(b.nodes,
              (std::vector<std::string>{"left-router", "right-router",
                                        "sender0", "receiver0", "sender1",
                                        "receiver1"}));
    // Bottleneck: 150/2 - 2 x 1 ms one way, 5 x BDP = 1406250 bytes.
    // Edges: 10 x that + 1 MB.
    EXPECT_EQ(b.links, (std::vector<std::string>{
        "0->1 bottleneck 15 73000 droptail 1406250",
        "1->0 bottleneck-rev 15 73000 droptail 1406250",
        "2->0 sender0->left-router 1000 1000 droptail 15062500",
        "0->2 left-router->sender0 1000 1000 droptail 15062500",
        "1->3 right-router->receiver0 1000 1000 droptail 15062500",
        "3->1 receiver0->right-router 1000 1000 droptail 15062500",
        "4->0 sender1->left-router 1000 1000 droptail 15062500",
        "0->4 left-router->sender1 1000 1000 droptail 15062500",
        "1->5 right-router->receiver1 1000 1000 droptail 15062500",
        "5->1 receiver1->right-router 1000 1000 droptail 15062500"}));
    EXPECT_EQ(b.paths, (std::vector<std::size_t>{0}));
    EXPECT_EQ(b.endpoints,
              (std::vector<std::pair<NodeId, NodeId>>{{2, 3}, {4, 5}}));
  }
  {
    const auto t = make_topology(
        ParkingLotConfig{.hops = 2, .cross_per_hop = 1, .long_flows = 1});
    const BuildOrder b = build_order(*t);
    EXPECT_EQ(b.nodes, (std::vector<std::string>{
                           "router0", "router1", "router2", "long-tx0",
                           "long-rx0", "x0-tx0", "x0-rx0", "x1-tx0",
                           "x1-rx0"}));
    // Hops: 5 x the BDP of one hop's 2 x (20 + 2 x 1) ms round trip.
    EXPECT_EQ(b.links, (std::vector<std::string>{
        "0->1 hop0 15 20000 droptail 412500",
        "1->0 hop0-rev 15 20000 droptail 412500",
        "1->2 hop1 15 20000 droptail 412500",
        "2->1 hop1-rev 15 20000 droptail 412500",
        "3->0 long-tx0->router0 1000 1000 droptail 10000000",
        "0->3 router0->long-tx0 1000 1000 droptail 10000000",
        "4->2 long-rx0->router2 1000 1000 droptail 10000000",
        "2->4 router2->long-rx0 1000 1000 droptail 10000000",
        "5->0 x0-tx0->router0 1000 1000 droptail 10000000",
        "0->5 router0->x0-tx0 1000 1000 droptail 10000000",
        "6->1 x0-rx0->router1 1000 1000 droptail 10000000",
        "1->6 router1->x0-rx0 1000 1000 droptail 10000000",
        "7->1 x1-tx0->router1 1000 1000 droptail 10000000",
        "1->7 router1->x1-tx0 1000 1000 droptail 10000000",
        "8->2 x1-rx0->router2 1000 1000 droptail 10000000",
        "2->8 router2->x1-rx0 1000 1000 droptail 10000000"}));
    EXPECT_EQ(b.paths, (std::vector<std::size_t>{0, 2}));
    // Hop-major crosses, then the long flow.
    EXPECT_EQ(b.endpoints, (std::vector<std::pair<NodeId, NodeId>>{
                               {5, 6}, {7, 8}, {3, 4}}));
  }
}

// Conservation property: everything injected is delivered, dropped, or
// still queued/in flight when the horizon hits.
class Conservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Conservation, PacketsAreConserved) {
  DumbbellConfig cfg;
  cfg.pairs = 4;
  GraphTopology d(dumbbell_graph(cfg));
  util::Rng rng(GetParam());

  std::vector<Probe> probes(4);
  std::uint64_t injected = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    probes[i].sched = &d.scheduler();
    d.endpoint(i).rx->attach(100 + i, &probes[i]);
  }
  for (int burst = 0; burst < 50; ++burst) {
    const std::size_t i = rng.below(4);
    Packet p;
    p.src = d.endpoint(i).tx->id();
    p.dst = d.endpoint(i).rx->id();
    p.flow = 100 + i;
    d.endpoint(i).tx->send(p);
    ++injected;
  }
  d.net().run_until(util::seconds(5));

  std::uint64_t delivered = 0;
  for (const auto& pr : probes) delivered += pr.count;
  const std::uint64_t dropped = d.path_link(0).queue().stats().dropped;
  EXPECT_EQ(delivered + dropped, injected);
  for (std::size_t i = 0; i < 4; ++i) d.endpoint(i).rx->detach(100 + i);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conservation,
                         ::testing::Values(1, 7, 42, 1337));

}  // namespace
}  // namespace phi::sim
