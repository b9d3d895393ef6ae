// node.hpp — a host or router. Hosts dispatch arriving packets to the
// protocol Agent registered for the packet's flow; routers forward along
// static routes (per-destination entry or default).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/packet.hpp"

namespace phi::sim {

class Link;

namespace detail {
/// Tiny association list for the per-packet agent lookup by flow. Hosts
/// hold at most a few dozen agents, where a linear scan of a contiguous
/// vector beats hashing — and it is hit once per delivered packet.
template <typename K, typename V>
class FlatMap {
 public:
  V* find(K key) noexcept {
    for (auto& [k, v] : entries_)
      if (k == key) return &v;
    return nullptr;
  }

  void assign(K key, V value) {
    if (V* v = find(key)) {
      *v = std::move(value);
      return;
    }
    entries_.emplace_back(key, std::move(value));
  }

  void erase(K key) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [key](const auto& e) {
                                    return e.first == key;
                                  }),
                   entries_.end());
  }

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::vector<std::pair<K, V>> entries_;
};
}  // namespace detail

/// A protocol endpoint (TCP sender, sink, Remy sender, ...). Agents are
/// non-owning observers registered on a Node per flow id.
class Agent {
 public:
  virtual ~Agent() = default;
  /// Called when a packet addressed to this node's flow arrives.
  virtual void on_packet(const Packet& p) = 0;
};

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  /// Static route: packets for `dst` leave via `link` (replacing any
  /// earlier route for `dst`).
  void add_route(NodeId dst, Link* link) {
    if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1, nullptr);
    routes_[dst] = link;
  }
  void set_default_route(Link* link) { default_route_ = link; }

  /// Originate or forward a packet from this node. Packets with no
  /// matching route are counted in `no_route_drops()` and discarded.
  /// Taken by reference: the link copies it into the packet pool once.
  void send(const Packet& p);

  /// A packet has arrived at this node. If addressed here it is handed to
  /// the flow's Agent (or counted as unclaimed); otherwise forwarded.
  void deliver(const Packet& p);

  void attach(FlowId flow, Agent* agent) { agents_.assign(flow, agent); }
  void detach(FlowId flow) { agents_.erase(flow); }

  std::uint64_t no_route_drops() const noexcept { return no_route_drops_; }
  std::uint64_t unclaimed_packets() const noexcept { return unclaimed_; }

 private:
  NodeId id_;
  std::string name_;
  /// Route table indexed by destination NodeId (null: no route). Node
  /// ids are dense network indices, so this is one load per hop on the
  /// forwarding hot path.
  std::vector<Link*> routes_;
  Link* default_route_ = nullptr;
  detail::FlatMap<FlowId, Agent*> agents_;
  std::uint64_t no_route_drops_ = 0;
  std::uint64_t unclaimed_ = 0;
};

}  // namespace phi::sim
