// topology.hpp — the topologies a scenario can name. The paper's
// experiments all run on the Figure-1 dumbbell: N sender/receiver pairs
// across a single bottleneck whose buffer is 5x the bottleneck
// bandwidth-delay product. Every topology is a generated graph: the
// dumbbell, the parking lot, the fat tree and the WAN each have a
// GraphSpec generator, and a TopologySpec variant builds any of them as a
// GraphTopology — the scenario engine is topology-generic (see
// docs/SCENARIOS.md).
#pragma once

#include <cstddef>
#include <memory>
#include <variant>

#include "sim/graph_topology.hpp"
#include "sim/parking_lot.hpp"
#include "sim/topology_iface.hpp"

namespace phi::sim {

struct DumbbellConfig {
  std::size_t pairs = 8;
  util::Rate bottleneck_rate = 15.0 * util::kMbps;
  util::Duration rtt = util::milliseconds(150);  ///< end-to-end round trip
  util::Rate edge_rate = 1000.0 * util::kMbps;
  util::Duration edge_delay = util::milliseconds(1);  ///< per edge hop, one way
  double buffer_bdp_multiple = 5.0;                   ///< Figure 1
  util::Duration monitor_interval = util::milliseconds(100);

  /// Bottleneck queueing discipline (both directions).
  QueueKind queue = QueueKind::kDropTail;
  /// Random extra one-way delay on the bottleneck (reorders packets).
  util::Duration bottleneck_jitter = 0;
};

/// The Figure-1 dumbbell as a graph. Nodes: left-router, right-router,
/// then sender<i>, receiver<i> per pair; endpoint i is sender i ->
/// receiver i. The one path is the left->right "bottleneck" link (the
/// reverse is "bottleneck-rev"), with a buffer of buffer_bdp_multiple x
/// the bottleneck BDP at `rtt`; each sender <-> left-router and
/// right-router <-> receiver edge adds edge_delay one way. Throws
/// std::invalid_argument on zero pairs or an rtt smaller than the edge
/// delays.
GraphSpec dumbbell_graph(const DumbbellConfig& cfg);

/// Declarative topology choice: one variant constructs any generated
/// topology. Scenario specs carry this instead of a concrete class.
using TopologySpec = std::variant<DumbbellConfig, ParkingLotConfig,
                                  FatTreeConfig, WanGraphConfig>;

/// Build the topology a spec describes (always a GraphTopology).
std::unique_ptr<Topology> make_topology(const TopologySpec& spec);

/// Endpoint/path counts implied by a spec, without building it.
std::size_t endpoint_count(const TopologySpec& spec) noexcept;
std::size_t path_count(const TopologySpec& spec) noexcept;

/// Human-readable topology class: "dumbbell", "parking-lot", "fat-tree"
/// or "wan".
const char* topology_class(const TopologySpec& spec) noexcept;

/// Node/link/endpoint/path counts implied by a spec, without building a
/// Network (and without registering any telemetry) — what run drivers
/// record in their provenance sidecars. The dumbbell's and the parking
/// lot's are closed forms, so an invalid spec still has a shape.
TopologyShape topology_shape(const TopologySpec& spec);

}  // namespace phi::sim
