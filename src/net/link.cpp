#include "net/link.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

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

void Link::complete(TransmitBatch& b) {
  Scheduler& sched = b.links.front()->sim_.scheduler();
  for (Link* l : b.links) {
    b.arrivals.push_back({l->arrival_time(), sched.reserve_seq(), &l->to_});
    l->transmit_next();
  }
}

void Link::on_transmit_complete(PacketPtr p) {
  sim_.at(arrival_time(), [node = &to_, p = std::move(p)]() mutable {
    node->receive(p);
  });
  transmit_next();
}

SimTime Link::arrival_time() {
  // Propagation: hand the packet to the destination node after the delay
  // (plus the phase-breaking jitter).  The delay is sampled at
  // transmit-completion time so mid-run delay changes (fig. 13) take
  // effect for subsequent packets.  A jittered link draws once per copy,
  // so it takes its stream's engine at the first draw and never builds the
  // prefix; canonical(w) is the same double uniform(0, 1) makes of w.
  SimTime delay = cfg_.delay;
  if (cfg_.jitter > SimTime::zero()) {
    delay += cfg_.jitter * Rng::canonical(rng_.engine()());
  }
  // Links are FIFO: jitter must never reorder deliveries (the receivers'
  // loss detection relies on in-order arrival).
  SimTime arrival = sim_.now() + delay;
  if (arrival < last_arrival_) arrival = last_arrival_;
  last_arrival_ = arrival;
  return arrival;
}

void Link::transmit_next() {
  transmitting_ = false;
  DropTailQueue* dt = droptail();
  const bool queued =
      dt != nullptr ? dt->size_packets() != 0 : !queue_->empty();
  if (queued) start_transmission();
}

void TransmitBatch::sort_arrivals() {
  const std::size_t n = arrivals.size();
  constexpr std::size_t kInsertionMax = 32;
  if (n <= kInsertionMax) {
    for (std::size_t i = 1; i < n; ++i) {
      const Arrival a = arrivals[i];
      std::size_t j = i;
      for (; j > 0 && a.t < arrivals[j - 1].t; --j) {
        arrivals[j] = arrivals[j - 1];
      }
      arrivals[j] = a;
    }
    return;
  }
  SimTime lo = arrivals.front().t;
  SimTime hi = lo;
  for (const Arrival& a : arrivals) {
    lo = std::min(lo, a.t);
    hi = std::max(hi, a.t);
  }
  // One counting pass per 8-bit digit of the largest key, every digit's
  // counts taken in one scan; each pass is stable, so ties keep their seq
  // order.
  constexpr unsigned kDigitBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::size_t kMaxDigits = 64 / kDigitBits;
  const auto key = [lo](const Arrival& a) {
    return static_cast<std::uint64_t>((a.t - lo).count_nanos());
  };
  const auto span = static_cast<std::uint64_t>((hi - lo).count_nanos());
  std::size_t digits = 0;
  while (digits < kMaxDigits && (span >> (digits * kDigitBits)) != 0) {
    ++digits;
  }
  std::array<std::array<std::uint32_t, kBuckets>, kMaxDigits> start;
  for (std::size_t d = 0; d < digits; ++d) start[d].fill(0);
  for (const Arrival& a : arrivals) {
    const std::uint64_t k = key(a);
    for (std::size_t d = 0; d < digits; ++d) {
      ++start[d][(k >> (d * kDigitBits)) % kBuckets];
    }
  }
  scratch.resize(n);
  for (std::size_t d = 0; d < digits; ++d) {
    const unsigned shift = static_cast<unsigned>(d * kDigitBits);
    std::array<std::uint32_t, kBuckets>& pos = start[d];
    // A digit every key shares moves nothing.
    if (pos[(key(arrivals.front()) >> shift) % kBuckets] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : pos) sum += std::exchange(c, sum);
    for (const Arrival& a : arrivals) {
      scratch[pos[(key(a) >> shift) % kBuckets]++] = a;
    }
    arrivals.swap(scratch);
  }
}

}  // namespace tfmcc
