#include "net/link.hpp"

#include <cassert>

#include "net/node.hpp"

namespace tfmcc {

Link::Link(Simulator& sim, Node& to, LinkConfig cfg, Rng rng)
    : to_{to}, sim_{sim}, cfg_{cfg}, rng_{std::move(rng)} {
  // Made right after the link, the queue's first line follows the link's
  // two in the arena.
  Arena& arena = sim_.arena();
  if (cfg_.use_red) {
    RedQueue::Config red;
    red.limit_packets = cfg_.queue_limit_packets;
    red.max_th = static_cast<double>(cfg_.queue_limit_packets) * 0.5;
    red.min_th = red.max_th / 3.0;
    queue_ = arena.make<RedQueue>(red, rng_.substream(1), arena);
  } else {
    queue_ = arena.make<DropTailQueue>(cfg_.queue_limit_packets, arena);
  }
}

void Link::send(const PacketPtr& p, TransmitBatch* batch) {
  if (cfg_.loss_rate > 0.0 && rng_.bernoulli(cfg_.loss_rate)) {
    ++loss_drops_;
    return;
  }
  DropTailQueue* dt = droptail();
  if (dt == nullptr) {
    if (queue_->enqueue(p) && !transmitting_) start_transmission(batch);
    return;
  }
  // An idle link's queue is empty: enqueueing the packet would only pop it
  // straight back.
  if (!transmitting_) {
    if (dt->pass_through()) transmit(p, batch);
    return;
  }
  dt->enqueue(p);
}

void Link::start_transmission(TransmitBatch* batch) {
  DropTailQueue* dt = droptail();
  PacketPtr p = dt != nullptr ? dt->dequeue() : queue_->dequeue();
  if (p) transmit(p, batch);
}

void Link::transmit(const PacketPtr& p, TransmitBatch* batch) {
  transmitting_ = true;
  const SimTime tx = transmission_time(p->size_bytes);
  // An idle link's queue is empty, so the packet it transmits is the one
  // the fan-out is sending.
  if (batch != nullptr && (batch->links.empty() || batch->tx == tx)) {
    assert(p == batch->packet);
    batch->tx = tx;
    batch->links.push_back(this);
    return;
  }
  sim_.in(tx, [this, q = PacketPtr{p}]() mutable {
    on_transmit_complete(std::move(q));
  });
}

void Link::complete(const TransmitBatch& b) {
  for (Link* l : b.links) l->on_transmit_complete(b.packet);
}

void Link::on_transmit_complete(PacketPtr p) {
  // Propagation: hand the packet to the destination node after the delay
  // (plus the phase-breaking jitter).  The delay is sampled at
  // transmit-completion time so mid-run delay changes (fig. 13) take
  // effect for subsequent packets.
  SimTime delay = cfg_.delay;
  if (cfg_.jitter > SimTime::zero()) {
    delay += cfg_.jitter * rng_.uniform(0.0, 1.0);
  }
  // Links are FIFO: jitter must never reorder deliveries (the receivers'
  // loss detection relies on in-order arrival).
  SimTime arrival = sim_.now() + delay;
  if (arrival < last_arrival_) arrival = last_arrival_;
  last_arrival_ = arrival;
  sim_.at(arrival, [node = &to_, p = std::move(p)]() mutable {
    node->receive(p);
  });
  transmitting_ = false;
  DropTailQueue* dt = droptail();
  const bool queued =
      dt != nullptr ? dt->size_packets() != 0 : !queue_->empty();
  if (queued) start_transmission();
}

}  // namespace tfmcc
