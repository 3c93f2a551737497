#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace tfmcc {

namespace detail {

/// Fixed-capacity FIFO ring of PacketPtrs.  Queues have a hard packet
/// limit, so a preallocated ring replaces per-node deque traffic on the
/// enqueue/dequeue hot path (two queue ops per packet hop).  The slots live
/// in `arena`, next to the link that owns the queue.
class PacketRing {
 public:
  PacketRing(std::size_t capacity, Arena& arena)
      : mask_{round_up_pow2(capacity) - 1} {
    ring_ = static_cast<PacketPtr*>(
        arena.allocate((mask_ + 1) * sizeof(PacketPtr), alignof(PacketPtr)));
    std::uninitialized_value_construct_n(ring_, mask_ + 1);
  }
  PacketRing(const PacketRing&) = delete;
  PacketRing& operator=(const PacketRing&) = delete;
  ~PacketRing() { std::destroy_n(ring_, mask_ + 1); }

  std::size_t size() const { return size_; }

  void push_back(const PacketPtr& p) {
    ring_[(head_ + size_) & mask_] = p;
    ++size_;
  }

  PacketPtr pop_front() {
    PacketPtr p = std::move(ring_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return p;
  }

 private:
  // Power-of-two capacity: the index wrap is a mask, not a division, on a
  // path taken twice per packet hop.
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t c = 1;
    while (c < n) c <<= 1;
    return c;
  }

  PacketPtr* ring_;
  std::size_t mask_;
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace detail

/// Interface for a link's outbound packet queue.
class Queue {
 public:
  virtual ~Queue() = default;

  /// Try to accept a packet.  Returns false if the packet was dropped.
  /// Takes a reference: an accepted packet costs exactly one refcount
  /// increment (the queue's own copy), a dropped one costs none.
  virtual bool enqueue(const PacketPtr& p) = 0;
  /// Remove and return the head packet; nullptr when empty.
  virtual PacketPtr dequeue() = 0;

  virtual std::size_t size_packets() const = 0;
  virtual std::int64_t size_bytes() const = 0;
  bool empty() const { return size_packets() == 0; }

  std::int64_t drops() const { return drops_; }
  std::int64_t accepted() const { return accepted_; }

 protected:
  std::int64_t drops_{0};
  std::int64_t accepted_{0};
};

/// FIFO drop-tail queue with a packet-count limit — the queue discipline
/// used for every experiment in the paper ("drop-tail queues were used at
/// the routers", §4).
class DropTailQueue final : public Queue {
 public:
  /// `arena` holds the packet slots; the queue must not outlive it.
  DropTailQueue(std::size_t limit_packets, Arena& arena)
      : limit_{limit_packets}, q_{limit_packets, arena} {}

  bool enqueue(const PacketPtr& p) override;
  PacketPtr dequeue() override;

  /// An enqueue into the empty queue and the dequeue that follows, for an
  /// idle link that transmits the packet at once: counts it as accepted,
  /// or as dropped at a zero limit, and returns whether it was accepted.
  bool pass_through() {
    assert(q_.size() == 0);
    if (limit_ == 0) {
      ++drops_;
      return false;
    }
    ++accepted_;
    return true;
  }

  std::size_t size_packets() const override { return q_.size(); }
  std::int64_t size_bytes() const override { return bytes_; }
  std::size_t limit() const { return limit_; }

 private:
  std::size_t limit_;
  detail::PacketRing q_;
  std::int64_t bytes_{0};
};

// An idle link reads accepted_, limit_ and the ring's size, all in the
// queue's first line; only bytes_ lies past it.
static_assert(sizeof(DropTailQueue) == 64 + 8,
              "DropTailQueue's per-copy fields left its first line");

/// Random Early Detection queue (Floyd & Jacobson 1993, "gentle" variant).
///
/// The paper notes that fairness "generally improves when active queuing
/// (e.g. RED) is used instead" of drop-tail; this implementation backs the
/// `ablation_red_queue` bench that checks exactly that claim.
class RedQueue final : public Queue {
 public:
  struct Config {
    std::size_t limit_packets{50};
    double min_th{5};     // packets
    double max_th{15};    // packets
    double max_p{0.10};   // drop probability at max_th
    double weight{0.002}; // EWMA weight for the average queue size
  };

  /// `arena` holds the packet slots; the queue must not outlive it.
  RedQueue(Config cfg, Rng rng, Arena& arena)
      : cfg_{cfg}, rng_{std::move(rng)}, q_{cfg.limit_packets, arena} {}

  bool enqueue(const PacketPtr& p) override;
  PacketPtr dequeue() override;

  std::size_t size_packets() const override { return q_.size(); }
  std::int64_t size_bytes() const override { return bytes_; }

 private:
  Config cfg_;
  Rng rng_;
  detail::PacketRing q_;
  std::int64_t bytes_{0};
  double avg_{0.0};
  std::int64_t count_since_drop_{-1};
};

}  // namespace tfmcc
