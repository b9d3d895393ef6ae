// topology_iface.hpp — the abstraction the scenario engine runs against.
// A Topology owns a fully-routed Network plus the measurement substrate:
// numbered sender/receiver endpoint pairs (flows are addressed tx -> rx,
// routing already installed) and numbered bottleneck *paths*, each with a
// Link and an attached LinkMonitor. The Figure-1 dumbbell is the
// one-path instance; the parking lot exposes one path per hop, which is
// what makes per-path congestion contexts observable (§2.2.2).
// GraphTopology (sim/graph_topology.hpp) is the one implementation.
#pragma once

#include <cstddef>

#include "sim/monitor.hpp"
#include "sim/network.hpp"

namespace phi::sim {

class Topology {
 public:
  /// One sender/receiver endpoint pair. Attach agents to `tx`/`rx` and
  /// address packets tx -> rx; every topology guarantees routes exist in
  /// both directions.
  struct Endpoint {
    Node* tx = nullptr;
    Node* rx = nullptr;
  };

  /// endpoint_path() result when the route crosses no monitored link.
  static constexpr std::size_t kAllPaths = static_cast<std::size_t>(-1);

  virtual ~Topology() = default;

  virtual Network& net() noexcept = 0;
  Scheduler& scheduler() noexcept { return net().scheduler(); }

  /// Number of addressable sender/receiver pairs.
  virtual std::size_t endpoint_count() const noexcept = 0;
  /// Endpoint `i` (throws std::out_of_range past endpoint_count()).
  virtual Endpoint endpoint(std::size_t i) = 0;

  /// Number of distinct bottleneck paths.
  virtual std::size_t path_count() const noexcept = 0;
  /// Forward bottleneck link of path `p` (throws std::out_of_range).
  virtual Link& path_link(std::size_t p) = 0;
  /// Monitor attached to path `p`'s bottleneck (throws std::out_of_range).
  virtual LinkMonitor& path_monitor(std::size_t p) = 0;
  /// The bottleneck path endpoint `i`'s flow crosses (the smallest-rate
  /// monitored link on its route, the first one on ties), or kAllPaths
  /// when the route crosses no monitored link.
  virtual std::size_t endpoint_path(std::size_t i) const = 0;
};

}  // namespace phi::sim
