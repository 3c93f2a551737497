#include "net/node.hpp"

#include "net/link.hpp"
#include "net/topology.hpp"
#include "util/log.hpp"

namespace tfmcc {

void Node::attach_agent(PortId port, Agent* agent) {
  for (auto& [p, a] : agents_) {
    if (p == port) {
      a = agent;
      return;
    }
  }
  agents_.emplace_back(port, agent);
}

void Node::detach_agent(PortId port) {
  for (auto it = agents_.begin(); it != agents_.end(); ++it) {
    if (it->first == port) {
      agents_.erase(it);
      return;
    }
  }
}

void Node::set_route_table(std::vector<Link*> table) {
  default_route_ = nullptr;
  default_route_span_ = 0;
  routes_ = std::move(table);
}

void Node::set_default_route(Link* next_hop, NodeId span) {
  default_route_ = next_hop;
  default_route_span_ = span;
  routes_ = {};
}

Link* Node::route(NodeId dst) const {
  if (default_route_ != nullptr) {
    return (dst >= 0 && dst < default_route_span_ && dst != id_)
               ? default_route_
               : nullptr;
  }
  const auto idx = static_cast<std::size_t>(dst);
  return idx < routes_.size() ? routes_[idx] : nullptr;
}

void Node::receive(const PacketPtr& p) {
  if (p->is_multicast()) {
    if (topo_.is_member(p->group, id_)) deliver_local(p);
    forward_multicast(p);
    return;
  }
  if (p->dst == id_) {
    deliver_local(p);
  } else {
    forward_unicast(p);
  }
}

void Node::send(const PacketPtr& p) {
  if (p->is_multicast()) {
    // Source injection: replicate down the distribution tree from here.
    forward_multicast(p);
    return;
  }
  if (p->dst == id_) {
    deliver_local(p);
    return;
  }
  forward_unicast(p);
}

void Node::deliver_local(const PacketPtr& p) {
  for (const auto& [port, agent] : agents_) {
    if (port == p->dport) {
      ++delivered_local_;
      delivered_endpoints_ += agent->endpoint_count();
      agent->handle_packet(*p);
      return;
    }
  }
}

void Node::forward_unicast(const PacketPtr& p) {
  Link* l = route(p->dst);
  if (l == nullptr) {
    TFMCC_LOG(LogLevel::kWarn, topo_.sim().now(), "node",
              "node %d: no route to %d, packet dropped", id_, p->dst);
    return;
  }
  ++forwarded_;
  l->send(p);
}

void Node::forward_multicast(const PacketPtr& p) {
  const std::vector<Link*>& out = topo_.mcast_out_links(p->group, id_);
  if (out.empty()) return;
  std::unique_ptr<TransmitBatch> batch;
  if (free_batches_.empty()) {
    batch = std::make_unique<TransmitBatch>();
  } else {
    batch = std::move(free_batches_.back());
    free_batches_.pop_back();
  }
  batch->packet = p;
  for (Link* l : out) {
    ++forwarded_;
    l->send(p, batch.get());
  }
  if (batch->links.empty()) {
    recycle(std::move(batch));
    return;
  }
  // Why one event for the whole batch is exact: nothing but the links'
  // completion events is scheduled while the loop above runs, so the
  // per-link completions the batched links would each have scheduled get
  // consecutive sequence numbers at one timestamp, now + tx.  Any other
  // event at that time was scheduled before the loop (and runs before
  // them) or after it (and runs after them), and whatever a completion
  // schedules gets a later sequence number, so those events always ran
  // back to back in link order.  Link::complete runs them in that order
  // inside one event: arrival insertions, jitter draws, set_delay
  // sampling and the follow-on start_transmission calls all happen in the
  // same order as before.  Only Scheduler::executed() sees the difference.
  const SimTime tx = batch->tx;
  topo_.sim().in(tx, [this, b = std::move(batch)]() mutable {
    Link::complete(*b);
    recycle(std::move(b));
  });
}

void Node::recycle(std::unique_ptr<TransmitBatch> b) {
  b->packet = nullptr;
  b->links.clear();
  free_batches_.push_back(std::move(b));
}

}  // namespace tfmcc
