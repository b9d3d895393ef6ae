#include "sim/parking_lot.hpp"

#include <stdexcept>
#include <string>

namespace phi::sim {

GraphSpec parking_lot_graph(const ParkingLotConfig& cfg) {
  if (cfg.hops == 0) throw std::invalid_argument("need >= 1 hop");

  GraphSpec g;
  g.klass = "parking-lot";
  g.monitor_interval = cfg.monitor_interval;
  for (std::size_t r = 0; r <= cfg.hops; ++r)
    g.nodes.push_back("router" + std::to_string(r));

  // Per-hop RTT for buffer sizing: a long flow's RTT spans all hops, but
  // cross traffic (the heavier load) sees one hop; size per-hop buffers
  // for the single-hop round trip like the dumbbell does.
  const util::Duration hop_rtt = 2 * (cfg.hop_delay + 2 * cfg.edge_delay);
  const auto buffer_bytes = static_cast<std::int64_t>(
      cfg.buffer_bdp_multiple *
      static_cast<double>(util::bdp_bytes(cfg.hop_rate, hop_rtt)));
  for (std::size_t h = 0; h < cfg.hops; ++h)
    g.edges.push_back({.a = h,
                       .b = h + 1,
                       .rate = cfg.hop_rate,
                       .delay = cfg.hop_delay,
                       .buffer_bytes = buffer_bytes,
                       .monitored = Monitoring::kForward,
                       .name = "hop" + std::to_string(h)});

  // A host and its edge to `router`; returns the host's node index.
  const auto attach_host = [&](std::size_t router, std::string name) {
    const std::size_t host = g.nodes.size();
    g.nodes.push_back(std::move(name));
    g.edges.push_back(
        {host, router, cfg.edge_rate, cfg.edge_delay, 10'000'000});
    return host;
  };
  std::vector<GraphSpec::EndpointSpec> longs;
  for (std::size_t j = 0; j < cfg.long_flows; ++j) {
    const std::size_t tx = attach_host(0, "long-tx" + std::to_string(j));
    const std::size_t rx =
        attach_host(cfg.hops, "long-rx" + std::to_string(j));
    longs.push_back({.tx = tx, .rx = rx});
  }
  // Cross-traffic host names: "x<hop>-tx<i>" and "x<hop>-rx<i>".
  const auto cross_name = [](std::size_t h, const char* role,
                             std::size_t i) {
    std::string name = "x";
    name += std::to_string(h);
    name += role;
    name += std::to_string(i);
    return name;
  };
  for (std::size_t h = 0; h < cfg.hops; ++h) {
    for (std::size_t i = 0; i < cfg.cross_per_hop; ++i) {
      const std::size_t tx = attach_host(h, cross_name(h, "-tx", i));
      const std::size_t rx = attach_host(h + 1, cross_name(h, "-rx", i));
      g.endpoints.push_back({.tx = tx, .rx = rx});
    }
  }
  g.endpoints.insert(g.endpoints.end(), longs.begin(), longs.end());
  return g;
}

}  // namespace phi::sim
