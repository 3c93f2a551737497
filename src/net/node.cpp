#include "net/node.hpp"

#include <cassert>
#include <cstdio>
#include <tuple>

#include "net/link.hpp"
#include "net/topology.hpp"

namespace tfmcc {

void Node::attach_agent(PortId port, Agent* agent) {
  assert(agent != nullptr);
  if (line_.first_agent == nullptr || line_.first_port == port) {
    line_.first_port = port;
    line_.first_agent = agent;
    return;
  }
  for (auto& [p, a] : more_agents_) {
    if (p == port) {
      a = agent;
      return;
    }
  }
  more_agents_.emplace_back(port, agent);
}

void Node::detach_agent(PortId port) {
  if (line_.first_agent != nullptr && line_.first_port == port) {
    // Refill the slot from the table, so it is empty only with no agent.
    if (more_agents_.empty()) {
      line_.first_agent = nullptr;
    } else {
      std::tie(line_.first_port, line_.first_agent) = more_agents_.back();
      more_agents_.pop_back();
    }
    return;
  }
  for (auto it = more_agents_.begin(); it != more_agents_.end(); ++it) {
    if (it->first == port) {
      more_agents_.erase(it);
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
    return (dst >= 0 && dst < default_route_span_ && dst != line_.id)
               ? default_route_
               : nullptr;
  }
  const auto idx = static_cast<std::size_t>(dst);
  return idx < routes_.size() ? routes_[idx] : nullptr;
}

void Node::receive(const PacketPtr& p) {
  if (p->is_multicast()) {
    if (line_.topo->is_member(p->group, line_.id)) deliver_local(p);
    forward_multicast(p);
    return;
  }
  if (p->dst == line_.id) {
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
  if (p->dst == line_.id) {
    deliver_local(p);
    return;
  }
  forward_unicast(p);
}

void Node::deliver_local(const PacketPtr& p) {
  Agent* agent = agent_on(p->dport);
  if (agent == nullptr) return;
  ++line_.delivered_local;
  line_.delivered_endpoints += agent->endpoint_count();
  agent->handle_packet(*p);
}

void Node::forward_unicast(const PacketPtr& p) {
  Link* l = route(p->dst);
  if (l == nullptr) {
    std::fprintf(stderr,
                 "[%10.6f] WARN  node         node %d: no route to %d, "
                 "packet dropped\n",
                 line_.topo->sim().now().to_seconds(), line_.id, p->dst);
    return;
  }
  ++line_.forwarded;
  l->send(p);
}

/// Delivers a sorted arrival run.  After each copy it asks the scheduler
/// whether the next arrival is also the next event; while it is, that copy
/// is delivered in the same frame, and once it is not, the run re-keys
/// itself to the next arrival and returns.  The last copy returns the batch
/// to its node.
class Node::ArrivalRun {
 public:
  ArrivalRun(Node& from, std::unique_ptr<TransmitBatch> b)
      : from_{&from}, b_{std::move(b)} {}

  void operator()() {
    TransmitBatch& b = *b_;
    Scheduler& sched = from_->line_.topo->sim().scheduler();
    for (;;) {
      Node* to = b.arrivals[b.next_arrival++].node;
      to->receive(b.packet);
      if (b.next_arrival == b.arrivals.size()) {
        from_->recycle(std::move(b_));
        return;
      }
      // Asked after the delivery: the copy just delivered may have
      // scheduled an event that comes before the next one.
      const TransmitBatch::Arrival& next = b.arrivals[b.next_arrival];
      if (!sched.take_next(next.t, next.seq)) {
        sched.schedule_reserved(next.t, next.seq, std::move(*this));
        return;
      }
    }
  }

 private:
  Node* from_;
  std::unique_ptr<TransmitBatch> b_;
};

void Node::forward_multicast(const PacketPtr& p) {
  const std::vector<Link*>& out =
      line_.topo->mcast_out_links(p->group, line_.id);
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
    ++line_.forwarded;
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
  // inside one event: arrival sequence numbers, jitter draws, set_delay
  // sampling and the follow-on start_transmission calls all happen in the
  // same order as before.
  //
  // Why one entry for the arrivals is exact: each arrival keeps the
  // (time, seq) key its own event would have had, as the seq is reserved
  // where that event was scheduled.  The run's entry is always keyed by
  // its earliest undelivered arrival, which precedes the others in the
  // scheduler's total order, so every copy is delivered at the same key,
  // between the same other events, as its own event would have been.
  // A copy taken inline by Scheduler::take_next is no exception: the
  // scheduler grants its key only when it precedes the live heap top, as
  // asked after the previous copy's delivery (which may have scheduled
  // something earlier), lies within the run loop's bound and the loop's
  // event limit is not reached; it then sets the clock and counts the
  // event just as popping it would have.  Only Scheduler::executed() sees
  // a difference, one event less per batch.
  const SimTime tx = batch->tx;
  line_.topo->sim().in(tx, [this, b = std::move(batch)]() mutable {
    Link::complete(*b);
    b->sort_arrivals();
    Scheduler& sched = line_.topo->sim().scheduler();
    const TransmitBatch::Arrival& head = b->arrivals.front();
    sched.schedule_reserved(head.t, head.seq, ArrivalRun{*this, std::move(b)});
  });
}

void Node::recycle(std::unique_ptr<TransmitBatch> b) {
  b->packet = nullptr;
  b->links.clear();
  b->arrivals.clear();
  b->next_arrival = 0;
  free_batches_.push_back(std::move(b));
}

}  // namespace tfmcc
