// Generated topologies (sim/graph_topology.hpp): fat-tree and WAN shape
// counts, deterministic ECMP routing (leaves included), per-edge queue
// kinds and jitter, region assignment, bottleneck path mapping, and the
// TopologySpec variant dispatch that feeds the self-describing run
// artifacts.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "sim/fq.hpp"
#include "sim/graph_topology.hpp"
#include "sim/topology.hpp"

namespace phi::sim {
namespace {

TEST(GraphTopology, FatTreeShapeCountsMatchTheFormulae) {
  const FatTreeConfig cfg{};  // k = 4
  const GraphSpec g = fat_tree_graph(cfg);
  const TopologyShape shape = graph_shape(g);
  // k=4: 16 hosts + 8 edge + 8 agg + 4 core = 36 nodes; 16 host links +
  // 16 edge-agg + 16 agg-core = 48 duplex edges = 96 directed links;
  // the monitored agg<->core tier gives 16 edges -> 32 paths.
  EXPECT_STREQ(shape.klass, "fat-tree");
  EXPECT_EQ(shape.nodes, 36u);
  EXPECT_EQ(shape.links, 96u);
  EXPECT_EQ(shape.endpoints, 16u);
  EXPECT_EQ(shape.paths, 32u);

  GraphTopology t(g);
  EXPECT_EQ(t.endpoint_count(), shape.endpoints);
  EXPECT_EQ(t.path_count(), shape.paths);
  EXPECT_EQ(t.net().node_count(), shape.nodes);
}

TEST(GraphTopology, FatTreeRegionsArePods) {
  GraphTopology t(fat_tree_graph(FatTreeConfig{}));
  EXPECT_EQ(t.regions(), 4);
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    EXPECT_EQ(t.endpoint_region(i), static_cast<int>(i / 4));
  }
}

TEST(GraphTopology, RoutesAreDeterministicAcrossRebuilds) {
  const GraphSpec g = fat_tree_graph(FatTreeConfig{});
  GraphTopology a(g);
  GraphTopology b(g);
  for (std::size_t i = 0; i < a.endpoint_count(); ++i) {
    EXPECT_EQ(a.endpoint_path(i), b.endpoint_path(i));
    EXPECT_EQ(a.endpoint_hops(i), b.endpoint_hops(i));
  }
}

TEST(GraphTopology, DestinationSpreadEcmpUsesMultipleCorePaths) {
  GraphTopology t(fat_tree_graph(FatTreeConfig{}));
  std::set<std::size_t> used;
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    const std::size_t p = t.endpoint_path(i);
    ASSERT_NE(p, Topology::kAllPaths);
    used.insert(p);
  }
  // With destination-spread ECMP the 16 cross-pod routes must not all
  // collapse onto one core link.
  EXPECT_GT(used.size(), 1u);
}

TEST(GraphTopology, FatTreeEndpointPathIsTheCoreBottleneck) {
  const FatTreeConfig cfg{};
  GraphTopology t(fat_tree_graph(cfg));
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    // Every pair is cross-pod for k=4 (host i -> host i+8 mod 16):
    // host-edge-agg-core-agg-edge-host = 6 links, bottlenecked at core.
    EXPECT_EQ(t.endpoint_hops(i), 6u);
    EXPECT_DOUBLE_EQ(t.path_link(t.endpoint_path(i)).rate(), cfg.core_rate);
  }
}

TEST(GraphTopology, LeafDestinationsSpreadByTheirOwnId) {
  // host(0) - top(1) = {mid-a(2), mid-b(3)} = bottom(4) - leaves 5..8.
  // Every leaf reads bottom's shortest-path labels, but top's two
  // equal-cost next hops toward leaf d must still be picked by d's own
  // id: candidates sorted by neighbour, so d % 2 == 0 leaves via mid-a.
  GraphSpec g;
  g.nodes = {"host", "top", "mid-a", "mid-b", "bottom",
             "leaf5", "leaf6", "leaf7", "leaf8"};
  g.edges.push_back({.a = 0, .b = 1});
  g.edges.push_back({.a = 1, .b = 2, .name = "top-a"});
  g.edges.push_back({.a = 1, .b = 3, .name = "top-b"});
  g.edges.push_back({.a = 2, .b = 4});
  g.edges.push_back({.a = 3, .b = 4});
  for (std::size_t leaf = 5; leaf <= 8; ++leaf) {
    g.edges.push_back({.a = 4, .b = leaf});
    g.endpoints.push_back({.tx = 0, .rx = leaf});
  }
  GraphTopology t(g);
  const Link& via_a = *t.net().links().at(2);
  const Link& via_b = *t.net().links().at(4);
  ASSERT_EQ(via_a.name(), "top-a");
  ASSERT_EQ(via_b.name(), "top-b");

  struct Probe : Agent {
    int count = 0;
    void on_packet(const Packet&) override { ++count; }
  };
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    const Topology::Endpoint ep = t.endpoint(i);
    Probe probe;
    ep.rx->attach(1, &probe);
    const std::uint64_t a_before = via_a.packets_transmitted();
    const std::uint64_t b_before = via_b.packets_transmitted();
    Packet p;
    p.src = ep.tx->id();
    p.dst = ep.rx->id();
    p.flow = 1;
    ep.tx->send(p);
    t.net().run_until(t.scheduler().now() + util::seconds(1));
    EXPECT_EQ(probe.count, 1) << ep.rx->name();
    const bool even = ep.rx->id() % 2 == 0;
    EXPECT_EQ(via_a.packets_transmitted() - a_before, even ? 1u : 0u)
        << ep.rx->name();
    EXPECT_EQ(via_b.packets_transmitted() - b_before, even ? 0u : 1u)
        << ep.rx->name();
    EXPECT_EQ(t.endpoint_hops(i), 4u);
    ep.rx->detach(1);
  }
}

TEST(GraphTopology, EdgeQueueKindAndJitterApplyToBothDirections) {
  GraphSpec g;
  g.nodes = {"a", "b", "c"};
  g.edges.push_back({.a = 0,
                     .b = 1,
                     .buffer_bytes = 50'000,
                     .monitored = Monitoring::kBoth,
                     .queue = QueueKind::kRedEcn,
                     .jitter = util::milliseconds(3)});
  g.edges.push_back({.a = 1, .b = 2, .queue = QueueKind::kFq});
  GraphTopology t(g);
  const auto& links = t.net().links();
  ASSERT_EQ(links.size(), 4u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NE(dynamic_cast<const RedQueue*>(&links[i]->queue()), nullptr);
    EXPECT_EQ(links[i]->queue().capacity_bytes(), 50'000);
    EXPECT_EQ(links[i]->jitter(), util::milliseconds(3));
    EXPECT_NE(dynamic_cast<const DrrQueue*>(&links[2 + i]->queue()), nullptr);
    EXPECT_EQ(links[2 + i]->jitter(), 0);
  }
  // Unnamed edges keep Network::add_link's "src->dst" names.
  EXPECT_EQ(links[0]->name(), "a->b");
  EXPECT_EQ(links[1]->name(), "b->a");
  // kBoth: a->b is path 0, b->a path 1; the unmonitored edge adds none.
  ASSERT_EQ(t.path_count(), 2u);
  EXPECT_EQ(&t.path_link(0), links[0].get());
  EXPECT_EQ(&t.path_link(1), links[1].get());
  EXPECT_EQ(graph_shape(g).paths, 2u);
}

TEST(GraphTopology, WanGraphIsAPureFunctionOfItsSeed) {
  WanGraphConfig cfg{};
  cfg.seed = 5;
  const GraphSpec a = wan_graph(cfg);
  const GraphSpec b = wan_graph(cfg);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].a, b.edges[i].a);
    EXPECT_EQ(a.edges[i].b, b.edges[i].b);
    EXPECT_DOUBLE_EQ(a.edges[i].rate, b.edges[i].rate);
    EXPECT_EQ(a.edges[i].delay, b.edges[i].delay);
  }

  cfg.seed = 6;
  const GraphSpec c = wan_graph(cfg);
  bool differs = c.edges.size() != a.edges.size();
  for (std::size_t i = 0; !differs && i < a.edges.size(); ++i) {
    differs = a.edges[i].a != c.edges[i].a || a.edges[i].b != c.edges[i].b ||
              a.edges[i].rate != c.edges[i].rate ||
              a.edges[i].delay != c.edges[i].delay;
  }
  EXPECT_TRUE(differs);
}

TEST(GraphTopology, WanRegionsAreSites) {
  WanGraphConfig cfg{};  // 6 sites x 3 hosts
  GraphTopology t(wan_graph(cfg));
  EXPECT_EQ(t.regions(), 6);
  EXPECT_EQ(t.endpoint_count(), 18u);
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    EXPECT_EQ(t.endpoint_region(i), static_cast<int>(i / cfg.hosts_per_site));
  }
}

TEST(GraphTopology, TopologySpecVariantDispatchesToGenerators) {
  const TopologySpec ft = FatTreeConfig{};
  EXPECT_STREQ(topology_class(ft), "fat-tree");
  const TopologyShape shape = topology_shape(ft);
  EXPECT_EQ(shape.nodes, 36u);
  EXPECT_EQ(shape.paths, 32u);
  EXPECT_EQ(endpoint_count(ft), 16u);
  EXPECT_EQ(path_count(ft), 32u);

  std::unique_ptr<Topology> t = make_topology(ft);
  ASSERT_NE(dynamic_cast<GraphTopology*>(t.get()), nullptr);
  EXPECT_EQ(t->endpoint_count(), 16u);

  const TopologySpec wan = WanGraphConfig{};
  EXPECT_STREQ(topology_class(wan), "wan");
  EXPECT_EQ(topology_shape(wan).endpoints, 18u);
}

}  // namespace
}  // namespace phi::sim
