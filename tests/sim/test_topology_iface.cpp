// The Topology interface contract: the dumbbell and the parking lot expose
// the same endpoint/path addressing, and a TopologySpec variant constructs
// either without the caller naming a concrete class.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/topology.hpp"

namespace phi::sim {
namespace {

TEST(TopologyIface, DumbbellEndpointsMirrorPairs) {
  DumbbellConfig cfg;
  cfg.pairs = 3;
  GraphTopology d(dumbbell_graph(cfg));
  Topology& t = d;

  ASSERT_EQ(t.endpoint_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Topology::Endpoint ep = t.endpoint(i);
    EXPECT_EQ(ep.tx->name(), "sender" + std::to_string(i));
    EXPECT_EQ(ep.rx->name(), "receiver" + std::to_string(i));
    EXPECT_EQ(t.endpoint_path(i), 0u);
  }
  ASSERT_EQ(t.path_count(), 1u);
  EXPECT_EQ(t.path_link(0).name(), "bottleneck");
  EXPECT_EQ(&t.path_monitor(0).link_queue(), &t.path_link(0).queue());
  EXPECT_EQ(&t.scheduler(), &d.net().scheduler());
}

TEST(TopologyIface, DumbbellRangeChecks) {
  GraphTopology d(dumbbell_graph(DumbbellConfig{.pairs = 2}));
  Topology& t = d;
  EXPECT_THROW(t.endpoint(2), std::out_of_range);
  EXPECT_THROW(t.path_link(1), std::out_of_range);
  EXPECT_THROW(t.path_monitor(1), std::out_of_range);
  EXPECT_THROW((void)t.endpoint_path(2), std::out_of_range);
}

TEST(TopologyIface, ParkingLotEndpointsAreHopMajor) {
  ParkingLotConfig cfg;
  cfg.hops = 3;
  cfg.cross_per_hop = 2;
  cfg.long_flows = 2;
  GraphTopology pl(parking_lot_graph(cfg));
  Topology& t = pl;

  // Cross host names are "x<hop>-tx<i>" and "x<hop>-rx<i>".
  const auto cross_name = [](std::size_t h, const char* role,
                             std::size_t k) {
    std::string name = "x";
    name += std::to_string(h);
    name += role;
    name += std::to_string(k);
    return name;
  };

  ASSERT_EQ(t.endpoint_count(), 3u * 2u + 2u);
  ASSERT_EQ(t.path_count(), 3u);
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_EQ(t.path_link(h).name(), "hop" + std::to_string(h));
    EXPECT_EQ(&t.path_monitor(h).link_queue(), &t.path_link(h).queue());
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t i = h * 2 + k;
      const Topology::Endpoint ep = t.endpoint(i);
      EXPECT_EQ(ep.tx->name(), cross_name(h, "-tx", k));
      EXPECT_EQ(ep.rx->name(), cross_name(h, "-rx", k));
      EXPECT_EQ(t.endpoint_path(i), h);
    }
  }
  // Long flows follow the crosses and traverse every path. All hops have
  // the same rate, so their bottleneck path is the first one crossed.
  for (std::size_t j = 0; j < 2; ++j) {
    const std::size_t i = 6 + j;
    const Topology::Endpoint ep = t.endpoint(i);
    EXPECT_EQ(ep.tx->name(), "long-tx" + std::to_string(j));
    EXPECT_EQ(ep.rx->name(), "long-rx" + std::to_string(j));
    EXPECT_EQ(t.endpoint_path(i), 0u);
    EXPECT_EQ(pl.endpoint_hops(i), 3u + 2u);
  }
  EXPECT_THROW(t.endpoint(8), std::out_of_range);
  EXPECT_THROW((void)t.endpoint_path(8), std::out_of_range);
}

TEST(TopologyIface, MakeTopologyBuildsEitherVariant) {
  TopologySpec dumb = DumbbellConfig{.pairs = 5};
  TopologySpec lot = ParkingLotConfig{.hops = 2, .cross_per_hop = 3,
                                      .long_flows = 1};

  EXPECT_STREQ(topology_class(dumb), "dumbbell");
  EXPECT_STREQ(topology_class(lot), "parking-lot");
  EXPECT_EQ(endpoint_count(dumb), 5u);
  EXPECT_EQ(path_count(dumb), 1u);
  EXPECT_EQ(endpoint_count(lot), 7u);
  EXPECT_EQ(path_count(lot), 2u);

  // The built instances agree with the spec-level counts and shapes.
  for (const TopologySpec& spec : {dumb, lot}) {
    auto t = make_topology(spec);
    ASSERT_NE(t, nullptr);
    EXPECT_NE(dynamic_cast<GraphTopology*>(t.get()), nullptr);
    const TopologyShape shape = topology_shape(spec);
    EXPECT_STREQ(shape.klass, topology_class(spec));
    EXPECT_EQ(t->net().node_count(), shape.nodes);
    EXPECT_EQ(t->net().links().size(), shape.links);
    EXPECT_EQ(t->endpoint_count(), endpoint_count(spec));
    EXPECT_EQ(t->endpoint_count(), shape.endpoints);
    EXPECT_EQ(t->path_count(), path_count(spec));
    EXPECT_EQ(t->path_count(), shape.paths);
  }
}

}  // namespace
}  // namespace phi::sim
