#include "sim/node.hpp"

#include "sim/link.hpp"

namespace phi::sim {

void Node::send(const Packet& p) {
  Link* link = p.dst < routes_.size() ? routes_[p.dst] : nullptr;
  if (link == nullptr) link = default_route_;
  if (link == nullptr) {
    ++no_route_drops_;
    return;
  }
  link->send(p);
}

void Node::deliver(const Packet& p) {
  if (p.dst != id_) {
    send(p);
    return;
  }
  Agent* const* agent = agents_.find(p.flow);
  if (agent == nullptr) {
    ++unclaimed_;
    return;
  }
  (*agent)->on_packet(p);
}

}  // namespace phi::sim
