#include "sim/parking_lot.hpp"

#include <stdexcept>

namespace phi::sim {

Node& ParkingLot::attach_host(std::size_t router_idx,
                              const std::string& name) {
  Node& host = net_.add_node(name);
  Node& router = *routers_.at(router_idx);
  const std::int64_t edge_buf = 10'000'000;
  Link& up = net_.add_link(host, router, cfg_.edge_rate, cfg_.edge_delay,
                           edge_buf);
  Link& down = net_.add_link(router, host, cfg_.edge_rate, cfg_.edge_delay,
                             edge_buf);
  host.set_default_route(&up);
  router.add_route(host.id(), &down);

  // Inter-router routes toward this host: forward on lower-index
  // routers, backward on higher-index ones.
  for (std::size_t j = 0; j < routers_.size(); ++j) {
    if (j == router_idx) continue;
    if (j < router_idx) {
      routers_[j]->add_route(host.id(), hop_links_.at(j));
    } else {
      routers_[j]->add_route(host.id(), hop_links_rev_.at(j - 1));
    }
  }
  return host;
}

ParkingLot::ParkingLot(const ParkingLotConfig& cfg) : cfg_(cfg) {
  if (cfg.hops == 0) throw std::invalid_argument("need >= 1 hop");

  for (std::size_t r = 0; r <= cfg.hops; ++r)
    routers_.push_back(&net_.add_node("router" + std::to_string(r)));

  // Per-hop RTT for buffer sizing: a long flow's RTT spans all hops, but
  // cross traffic (the heavier load) sees one hop; size per-hop buffers
  // for the single-hop round trip like the dumbbell does.
  const util::Duration hop_rtt = 2 * (cfg.hop_delay + 2 * cfg.edge_delay);
  const auto buffer_bytes = static_cast<std::int64_t>(
      cfg.buffer_bdp_multiple *
      static_cast<double>(util::bdp_bytes(cfg.hop_rate, hop_rtt)));

  for (std::size_t h = 0; h < cfg.hops; ++h) {
    hop_links_.push_back(&net_.add_link(
        *routers_[h], *routers_[h + 1], cfg.hop_rate, cfg.hop_delay,
        buffer_bytes, "hop" + std::to_string(h)));
    hop_links_rev_.push_back(&net_.add_link(
        *routers_[h + 1], *routers_[h], cfg.hop_rate, cfg.hop_delay,
        buffer_bytes, "hop" + std::to_string(h) + "-rev"));
  }

  for (std::size_t i = 0; i < cfg.long_flows; ++i) {
    long_senders_.push_back(
        &attach_host(0, "long-tx" + std::to_string(i)));
    long_receivers_.push_back(
        &attach_host(cfg.hops, "long-rx" + std::to_string(i)));
  }
  cross_senders_.resize(cfg.hops);
  cross_receivers_.resize(cfg.hops);
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
      cross_senders_[h].push_back(&attach_host(h, cross_name(h, "-tx", i)));
      cross_receivers_[h].push_back(
          &attach_host(h + 1, cross_name(h, "-rx", i)));
    }
  }

  for (std::size_t h = 0; h < cfg.hops; ++h)
    monitors_.push_back(std::make_unique<LinkMonitor>(
        net_.scheduler(), *hop_links_[h], cfg.monitor_interval));
}

}  // namespace phi::sim
