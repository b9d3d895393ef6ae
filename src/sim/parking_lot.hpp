// parking_lot.hpp — the classic multi-bottleneck chain: routers R0..RH
// connected by per-hop bottleneck links, "long" flows traversing every
// hop and per-hop "cross" flows loading individual hops. The paper's
// context is per *path* (§2.2.2: a /24 behind a particular egress); this
// topology is what makes per-path congestion contexts observable — two
// hops can carry very different weather. It is a generated graph:
// parking_lot_graph() writes the GraphSpec and GraphTopology builds it.
#pragma once

#include <cstddef>

#include "sim/graph_topology.hpp"

namespace phi::sim {

struct ParkingLotConfig {
  std::size_t hops = 2;            ///< bottleneck links (routers = hops+1)
  std::size_t cross_per_hop = 4;   ///< cross-traffic pairs loading each hop
  std::size_t long_flows = 2;      ///< end-to-end pairs across all hops
  util::Rate hop_rate = 15.0 * util::kMbps;
  util::Duration hop_delay = util::milliseconds(20);  ///< one way per hop
  util::Rate edge_rate = 1000.0 * util::kMbps;
  util::Duration edge_delay = util::milliseconds(1);
  double buffer_bdp_multiple = 5.0;
  util::Duration monitor_interval = util::milliseconds(100);
};

/// The parking lot as a graph. Nodes: router0..router<hops>, then the
/// hosts, each cabled to one router: long-tx<j> (router 0) and long-rx<j>
/// (the last router) per long flow, then x<h>-tx<i> (router h) and
/// x<h>-rx<i> (router h+1) hop by hop. Paths are the hops' forward links
/// "hop<h>" (the reverse is "hop<h>-rev"). Endpoints are hop-major: cross
/// pair (h, i) is endpoint h * cross_per_hop + i, and the long flows
/// follow at hops * cross_per_hop + j. Throws std::invalid_argument on
/// zero hops.
GraphSpec parking_lot_graph(const ParkingLotConfig& cfg);

}  // namespace phi::sim
