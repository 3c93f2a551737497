#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "util/arena.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

/// Simulation context handed to every component: the event scheduler plus a
/// root RNG from which components derive their private streams, the packet
/// pool behind make_packet(), and the arena that holds per-host state.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1)
      : root_rng_{seed, &arena_}, seed_{seed} {}

  Scheduler& scheduler() { return sched_; }
  SimTime now() const { return sched_.now(); }

  EventId at(SimTime t, EventCallback cb) {
    return sched_.schedule_at(t, std::move(cb));
  }
  EventId in(SimTime delay, EventCallback cb) {
    return sched_.schedule_in(delay, std::move(cb));
  }
  void cancel(const EventId& id) { sched_.cancel(id); }

  void run() { sched_.run(); }
  void run_until(SimTime t) { sched_.run_until(t); }

  std::uint64_t seed() const { return seed_; }

  /// Fresh deterministic RNG stream; callers pass a unique stream id
  /// (conventionally derived from component kind + instance index).  Its
  /// prefix and engine are built in the arena as it draws, so the stream
  /// must not draw after the Simulator is gone.
  Rng make_rng(std::uint64_t stream_id) const {
    return root_rng_.substream(stream_id);
  }

  /// Monotonically increasing id source for packets, flows, ...
  std::uint64_t next_uid() { return ++uid_; }

  /// Checkout a fresh packet from the per-simulator pool, uid and creation
  /// time already stamped.  One pool checkout per packet replaces the old
  /// one-heap-allocation-per-packet: the block returns to the pool when the
  /// last reference — queue entry, in-flight event capture — drops.
  /// Packets must not outlive the Simulator.
  MutablePacketPtr make_packet() {
    MutablePacketPtr p = make_pooled_packet(packet_pool_);
    p->uid = ++uid_;
    p->created = sched_.now();
    return p;
  }

  const FixedBlockPool& packet_pool() const { return packet_pool_; }

  /// Storage for per-host state (nodes, links, queues, receivers, RNG
  /// engines) that lives as long as the simulation.  Objects
  /// placed here are held by ArenaPtr and must not outlive the Simulator.
  Arena& arena() { return arena_; }

 private:
  // Destruction is reverse declaration order: the arena goes last, after
  // every member that may hold an RNG stream built in it; the pool is
  // declared before the scheduler so packets captured in still-pending
  // events are returned to a live pool when the scheduler is torn down.
  Arena arena_;
  FixedBlockPool packet_pool_;
  Scheduler sched_;
  Rng root_rng_;
  std::uint64_t seed_;
  std::uint64_t uid_{0};
};

}  // namespace tfmcc
