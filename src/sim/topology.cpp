#include "sim/topology.hpp"

#include <stdexcept>
#include <string>

namespace phi::sim {

GraphSpec dumbbell_graph(const DumbbellConfig& cfg) {
  if (cfg.pairs == 0) throw std::invalid_argument("dumbbell needs >= 1 pair");
  // Two edge hops plus the bottleneck hop make rtt / 2 each way.
  const util::Duration bottleneck_delay = cfg.rtt / 2 - 2 * cfg.edge_delay;
  if (bottleneck_delay <= 0)
    throw std::invalid_argument("rtt too small for the edge delays");

  const auto buffer_bytes = static_cast<std::int64_t>(
      cfg.buffer_bdp_multiple *
      static_cast<double>(util::bdp_bytes(cfg.bottleneck_rate, cfg.rtt)));
  // Edge links get generous buffers; they are never the constraint.
  const std::int64_t edge_buf = 10 * buffer_bytes + 1'000'000;

  GraphSpec g;
  g.klass = "dumbbell";
  g.monitor_interval = cfg.monitor_interval;
  g.nodes = {"left-router", "right-router"};
  g.edges.push_back({.a = 0,
                     .b = 1,
                     .rate = cfg.bottleneck_rate,
                     .delay = bottleneck_delay,
                     .buffer_bytes = buffer_bytes,
                     .monitored = Monitoring::kForward,
                     .name = "bottleneck",
                     .queue = cfg.queue,
                     .jitter = cfg.bottleneck_jitter});
  for (std::size_t i = 0; i < cfg.pairs; ++i) {
    const std::size_t s = g.nodes.size();
    g.nodes.push_back("sender" + std::to_string(i));
    g.nodes.push_back("receiver" + std::to_string(i));
    g.edges.push_back({s, 0, cfg.edge_rate, cfg.edge_delay, edge_buf});
    g.edges.push_back({1, s + 1, cfg.edge_rate, cfg.edge_delay, edge_buf});
    g.endpoints.push_back({.tx = s, .rx = s + 1});
  }
  return g;
}

std::unique_ptr<Topology> make_topology(const TopologySpec& spec) {
  return std::make_unique<GraphTopology>(std::visit(
      [](const auto& cfg) -> GraphSpec {
        using T = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<T, DumbbellConfig>) {
          return dumbbell_graph(cfg);
        } else if constexpr (std::is_same_v<T, ParkingLotConfig>) {
          return parking_lot_graph(cfg);
        } else if constexpr (std::is_same_v<T, FatTreeConfig>) {
          return fat_tree_graph(cfg);
        } else {
          return wan_graph(cfg);
        }
      },
      spec));
}

TopologyShape topology_shape(const TopologySpec& spec) {
  return std::visit(
      [](const auto& cfg) -> TopologyShape {
        using T = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<T, DumbbellConfig>) {
          return TopologyShape{"dumbbell", 2 + 2 * cfg.pairs,
                               2 + 4 * cfg.pairs, cfg.pairs, 1};
        } else if constexpr (std::is_same_v<T, ParkingLotConfig>) {
          const std::size_t eps =
              cfg.hops * cfg.cross_per_hop + cfg.long_flows;
          return TopologyShape{"parking-lot", cfg.hops + 1 + 2 * eps,
                               2 * cfg.hops + 4 * eps, eps, cfg.hops};
        } else if constexpr (std::is_same_v<T, FatTreeConfig>) {
          return graph_shape(fat_tree_graph(cfg));
        } else {
          return graph_shape(wan_graph(cfg));
        }
      },
      spec);
}

std::size_t endpoint_count(const TopologySpec& spec) noexcept {
  return std::visit(
      [](const auto& cfg) -> std::size_t {
        using T = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<T, DumbbellConfig>) {
          return cfg.pairs;
        } else if constexpr (std::is_same_v<T, ParkingLotConfig>) {
          return cfg.hops * cfg.cross_per_hop + cfg.long_flows;
        } else if constexpr (std::is_same_v<T, FatTreeConfig>) {
          return cfg.k * cfg.k * cfg.k / 4;  // k pods x (k/2)^2 hosts
        } else {
          return cfg.sites * cfg.hosts_per_site;
        }
      },
      spec);
}

std::size_t path_count(const TopologySpec& spec) noexcept {
  return std::visit(
      [](const auto& cfg) -> std::size_t {
        using T = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<T, DumbbellConfig>) {
          return 1;
        } else if constexpr (std::is_same_v<T, ParkingLotConfig>) {
          return cfg.hops;
        } else if constexpr (std::is_same_v<T, FatTreeConfig>) {
          // Both directions of every agg<->core link: k pods x k/2 aggs
          // x k/2 cores each.
          return 2 * (cfg.k * cfg.k * cfg.k / 4);
        } else {
          // Both directions of ring + chord edges; chords can collide
          // with the ring (seeded draws), so count the actual spec.
          return graph_shape(wan_graph(cfg)).paths;
        }
      },
      spec);
}

const char* topology_class(const TopologySpec& spec) noexcept {
  if (std::holds_alternative<DumbbellConfig>(spec)) return "dumbbell";
  if (std::holds_alternative<ParkingLotConfig>(spec)) return "parking-lot";
  if (std::holds_alternative<FatTreeConfig>(spec)) return "fat-tree";
  return "wan";
}

}  // namespace phi::sim
