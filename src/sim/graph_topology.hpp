// graph_topology.hpp — the one topology builder. A GraphSpec is a plain
// adjacency description (nodes, duplex edges with their queueing
// discipline, jitter and monitored directions, sender/receiver endpoint
// pairs); GraphTopology builds the Network from it, installs
// deterministic shortest-path routes with destination-spread ECMP, and
// exposes every monitored link direction as a sim::Topology path with its
// own LinkMonitor. Four generators produce GraphSpecs:
//
//   * dumbbell_graph (sim/topology.hpp) — the paper's Figure-1 dumbbell.
//   * parking_lot_graph (sim/parking_lot.hpp) — the multi-hop chain.
//   * fat_tree_graph — the k-ary datacenter fat tree (k pods of k/2 edge
//     and k/2 agg switches, (k/2)^2 cores, k^3/4 hosts). Core links get
//     the largest propagation delay, so the shard partitioner's
//     delay-tier cut maps pods onto shards (docs/PARALLELISM.md).
//   * wan_graph — a heterogeneous WAN: site routers on a ring plus
//     seeded random chords, per-edge rates and delays drawn from
//     configured ranges, a few hosts per site.
//
// Everything is a pure function of the config (and an explicit topology
// seed for the WAN), so equal specs reproduce identical networks, paths
// and routes. Nodes are created in spec order, then links in edge order
// (a->b, then b->a), then monitors in path order: that order fixes node
// ids, the shard plan and event sequence numbers, so generators list
// nodes and edges in a fixed order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/monitor.hpp"
#include "sim/network.hpp"
#include "sim/topology_iface.hpp"

namespace phi::sim {

/// Queueing discipline of an edge's links: the paper's drop-tail FIFO,
/// RED+ECN for the AQM ablation, or per-flow DRR fair queueing for the
/// §3.1 incentive-compatibility counterfactual.
enum class QueueKind { kDropTail, kRedEcn, kFq };

/// Which directions of an edge become Topology paths with a LinkMonitor.
enum class Monitoring { kNone, kForward, kBoth };

/// Adjacency description a GraphTopology is built from.
struct GraphSpec {
  struct Edge {
    std::size_t a = 0;  ///< node index
    std::size_t b = 0;  ///< node index
    util::Rate rate = 100.0 * util::kMbps;
    util::Duration delay = util::milliseconds(1);  ///< one way, each direction
    std::int64_t buffer_bytes = 256 * 1024;  ///< queue capacity, per direction
    /// kForward: the a->b link is a path; kBoth: a->b, then b->a.
    Monitoring monitored = Monitoring::kNone;
    /// a->b is named `name` and b->a `name + "-rev"`; empty leaves each
    /// direction Network::add_link's "src->dst". Names label every
    /// sim.link.* and sim.monitor.* metric.
    std::string name{};
    QueueKind queue = QueueKind::kDropTail;
    /// Random extra one-way delay in [0, jitter] per packet (reorders
    /// packets), drawn from its own stream per edge and direction; 0 is
    /// none.
    util::Duration jitter = 0;
  };
  struct EndpointSpec {
    std::size_t tx = 0;  ///< node index (host)
    std::size_t rx = 0;  ///< node index (host)
    int region = 0;      ///< aggregation-tree region (pod / site)
  };

  std::vector<std::string> nodes;
  std::vector<Edge> edges;
  std::vector<EndpointSpec> endpoints;
  util::Duration monitor_interval = util::milliseconds(100);
  const char* klass = "graph";  ///< generator kind ("fat-tree", "wan", ...)
  int regions = 1;
};

/// Node/link/endpoint/path counts implied by a GraphSpec without
/// building it: links counts both directions of every duplex edge; paths
/// counts every monitored direction, exactly GraphTopology::path_count().
struct TopologyShape {
  const char* klass = "graph";
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t endpoints = 0;
  std::size_t paths = 0;
};

TopologyShape graph_shape(const GraphSpec& spec) noexcept;

/// A fully-routed network built from a GraphSpec. Routing is shortest
/// path by propagation delay, fewer hops on ties; among equal-cost next
/// hops every node picks candidate `d % candidates` for destination id
/// `d` (destination-based ECMP), so it is a pure function of the graph.
/// This is not Al-Fares suffix routing: the edge and agg tiers of a fat
/// tree both split on `d % (k/2)`, so only k/2 of the (k/2)^2 cores carry
/// traffic (on k=4, cores 1 and 2 carry nothing; ROADMAP item 1a). A leaf
/// (a node with one edge) gets a default route out of that edge; every
/// other node gets one route per destination.
class GraphTopology : public Topology {
 public:
  explicit GraphTopology(GraphSpec spec);

  Network& net() noexcept override { return net_; }

  std::size_t endpoint_count() const noexcept override {
    return spec_.endpoints.size();
  }
  Endpoint endpoint(std::size_t i) override;

  // Paths: monitored link directions in edge order, a->b before b->a.
  // Where every monitored edge is kBoth (fat tree, WAN), path 2m is the
  // m-th monitored edge's a->b direction and path 2m+1 its b->a.
  std::size_t path_count() const noexcept override { return paths_.size(); }
  Link& path_link(std::size_t p) override { return *paths_.at(p); }
  LinkMonitor& path_monitor(std::size_t p) override {
    return *monitors_.at(p);
  }
  /// The *bottleneck* monitored link endpoint `i`'s route crosses (the
  /// smallest-rate one; first traversed on ties), or kAllPaths when the
  /// route crosses no monitored link (an intra-rack pair).
  std::size_t endpoint_path(std::size_t i) const override {
    if (i >= endpoint_paths_.size())
      throw std::out_of_range("endpoint index");
    return endpoint_paths_[i];
  }

  const GraphSpec& spec() const noexcept { return spec_; }
  /// Aggregation-tree region of endpoint `i` (fat-tree pod, WAN site).
  int endpoint_region(std::size_t i) const {
    return spec_.endpoints.at(i).region;
  }
  int regions() const noexcept { return spec_.regions; }
  /// Number of links endpoint `i`'s forward route traverses.
  std::size_t endpoint_hops(std::size_t i) const {
    return hop_counts_.at(i);
  }

 private:
  void install_routes();
  void enumerate_paths();

  GraphSpec spec_;
  Network net_;
  std::vector<Node*> nodes_;
  std::vector<Link*> fwd_;  ///< edge i, a->b
  std::vector<Link*> rev_;  ///< edge i, b->a
  std::vector<Link*> paths_;
  std::vector<std::unique_ptr<LinkMonitor>> monitors_;
  std::vector<std::size_t> endpoint_paths_;
  std::vector<std::size_t> hop_counts_;
};

/// k-ary fat tree (k even, >= 2): k pods x (k/2 edge + k/2 agg)
/// switches, (k/2)^2 cores, k/2 hosts per edge switch. Endpoint i sends
/// from host i to host (i + H/2) mod H — always a different pod for
/// k >= 4 — and its region is the sending pod. The agg<->core tier is
/// monitored (it is the congested tier with the default rates) and
/// carries the largest delay so pods map onto shards.
struct FatTreeConfig {
  std::size_t k = 4;
  util::Rate host_rate = 400.0 * util::kMbps;    ///< host <-> edge switch
  util::Rate fabric_rate = 200.0 * util::kMbps;  ///< edge <-> agg
  util::Rate core_rate = 100.0 * util::kMbps;    ///< agg <-> core
  util::Duration host_delay = util::microseconds(20);
  util::Duration fabric_delay = util::microseconds(50);
  /// Core-link propagation delay; also the sharded lookahead window.
  util::Duration core_delay = util::milliseconds(1);
  double buffer_bdp_multiple = 2.0;
  util::Duration monitor_interval = util::milliseconds(100);
};

GraphSpec fat_tree_graph(const FatTreeConfig& cfg);

/// Heterogeneous WAN: `sites` routers on a ring plus `extra_chords`
/// seeded random chords; every inter-site edge draws its rate and delay
/// uniformly from the configured ranges (all monitored). Each site hosts
/// `hosts_per_site` endpoints on fast access links; endpoint i sends
/// host i -> host (i + H/2) mod H and its region is the sending site.
struct WanGraphConfig {
  std::size_t sites = 6;
  std::size_t hosts_per_site = 3;
  std::size_t extra_chords = 2;
  util::Rate min_rate = 40.0 * util::kMbps;
  util::Rate max_rate = 160.0 * util::kMbps;
  util::Duration min_delay = util::milliseconds(4);
  util::Duration max_delay = util::milliseconds(30);
  util::Rate access_rate = 1000.0 * util::kMbps;
  util::Duration access_delay = util::milliseconds(1);
  double buffer_bdp_multiple = 2.0;
  /// Topology-shape seed (chords + per-edge draws); independent of the
  /// scenario run seed, so overriding `seed` re-runs the same graph.
  std::uint64_t seed = 1;
  util::Duration monitor_interval = util::milliseconds(100);
};

GraphSpec wan_graph(const WanGraphConfig& cfg);

}  // namespace phi::sim
