// Regression suite for the pooled scheduler introduced by the hot-path
// overhaul: generation-counted handles (no ABA through slot reuse), true
// in-place cancellation, the inline-only EventCallback, and the
// zero-heap-allocation steady state of schedule_in + step and of the
// per-simulator packet pool and of multicast fan-out.  The allocation tests
// count through a global operator new override, which is why this suite
// lives in its own binary.

#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "net/builders.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

// --- counting global allocator ---------------------------------------------

// Not atomic: the suite is single-threaded and gtest does not allocate
// concurrently with the measured regions.
std::size_t g_allocations = 0;

struct AllocationCounter {
  std::size_t start;
  AllocationCounter() : start{g_allocations} {}
  std::size_t delta() const { return g_allocations - start; }
};

}  // namespace

// Kept out of line: once a replacement is inlined, GCC sees malloc() or
// free() paired with operator new/delete and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// come from the same malloc the replaced deletes free into.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

// --- generation / ABA -------------------------------------------------------

TEST(SchedulerPool, PendingOnRecycledSlotIsFalse) {
  Scheduler s;
  EventId a = s.schedule_at(1_ms, [] {});
  s.cancel(a);
  // The freed slot is recycled by the next schedule; the stale handle must
  // not alias the new occupant.
  EventId b = s.schedule_at(2_ms, [] {});
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  s.run();
  EXPECT_FALSE(b.pending());
}

TEST(SchedulerPool, CancelOfStaleHandleDoesNotTouchRecycledSlot) {
  Scheduler s;
  EventId a = s.schedule_at(1_ms, [] {});
  s.cancel(a);
  bool fired = false;
  EventId b = s.schedule_at(2_ms, [&] { fired = true; });
  s.cancel(a);  // stale: must be a no-op, not a cancellation of b
  EXPECT_TRUE(b.pending());
  s.run();
  EXPECT_TRUE(fired);
}

TEST(SchedulerPool, FiredSlotRecycledHandleStaysStale) {
  Scheduler s;
  EventId a = s.schedule_at(1_ms, [] {});
  s.run();
  EXPECT_FALSE(a.pending());
  EventId b = s.schedule_in(1_ms, [] {});
  // a's slot was recycled for b; a must stay stale and cancelling it must
  // not kill b.
  EXPECT_FALSE(a.pending());
  s.cancel(a);
  EXPECT_TRUE(b.pending());
  s.cancel(b);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerPool, ManyRecyclesKeepHandlesIndependent) {
  Scheduler s;
  std::vector<EventId> stale;
  for (int round = 0; round < 100; ++round) {
    EventId id = s.schedule_in(1_ms, [] {});
    for (const EventId& old : stale) EXPECT_FALSE(old.pending());
    EXPECT_TRUE(id.pending());
    s.run();
    stale.push_back(id);
  }
}

TEST(SchedulerPool, DefaultConstructedIdNeverPending) {
  EventId id;
  EXPECT_FALSE(id.pending());
  Scheduler s;
  s.cancel(id);  // must not crash
}

TEST(SchedulerPool, IdsFromDifferentSchedulersDoNotCross) {
  Scheduler s1, s2;
  EventId a = s1.schedule_at(1_ms, [] {});
  // Cancelling through the wrong scheduler must not cancel a same-indexed
  // event in the right one.
  s2.cancel(a);
  EXPECT_TRUE(a.pending());
}

TEST(SchedulerPool, PendingCountTracksScheduleCancelFire) {
  Scheduler s;
  EXPECT_EQ(s.pending_count(), 0u);
  EventId a = s.schedule_at(1_ms, [] {});
  s.schedule_at(2_ms, [] {});
  EXPECT_EQ(s.pending_count(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_count(), 1u);
  s.run();
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SchedulerPool, CancelSurvivesReentrantCancelFromCaptureDestructor) {
  // Regression: cancel() used to destroy the captured state while the slot
  // still looked pending, so a capture destructor re-entering cancel() on
  // its own id corrupted the heap.
  Scheduler s;
  EventId id;
  struct Guard {
    Scheduler* sched;
    EventId* id;
    ~Guard() {
      if (sched != nullptr) {
        EXPECT_FALSE(id->pending());  // already released when we run
        sched->cancel(*id);           // must be a safe no-op
      }
    }
    Guard(Scheduler* s, EventId* i) : sched{s}, id{i} {}
    Guard(Guard&& o) noexcept : sched{o.sched}, id{o.id} { o.sched = nullptr; }
  };
  bool other_fired = false;
  id = s.schedule_at(SimTime::millis(1), [g = Guard{&s, &id}] { (void)g; });
  s.schedule_at(SimTime::millis(2), [&] { other_fired = true; });
  s.cancel(id);
  EXPECT_FALSE(id.pending());
  s.run();
  EXPECT_TRUE(other_fired);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(SchedulerPool, CaptureDestructorMayScheduleIntoFreedSlot) {
  Scheduler s;
  bool rescheduled_fired = false;
  struct Resched {
    Scheduler* sched;
    bool* fired;
    ~Resched() {
      if (sched != nullptr) {
        sched->schedule_in(SimTime::millis(1), [f = fired] { *f = true; });
      }
    }
    Resched(Scheduler* s, bool* f) : sched{s}, fired{f} {}
    Resched(Resched&& o) noexcept : sched{o.sched}, fired{o.fired} {
      o.sched = nullptr;
    }
  };
  EventId id = s.schedule_at(SimTime::millis(1),
                             [r = Resched{&s, &rescheduled_fired}] { (void)r; });
  s.cancel(id);  // destructor schedules a fresh event, possibly same slot
  EXPECT_FALSE(id.pending());
  s.run();
  EXPECT_TRUE(rescheduled_fired);
}

// --- EventCallback ----------------------------------------------------------

TEST(SchedulerPool, MoveOnlyCaptureIsSupported) {
  Scheduler s;
  auto token = std::make_unique<int>(7);
  int seen = 0;
  s.schedule_at(1_ms, [t = std::move(token), &seen] { seen = *t; });
  s.run();
  EXPECT_EQ(seen, 7);
}

// --- zero-allocation steady state -------------------------------------------

TEST(SchedulerPool, SteadyStateScheduleStepDoesNotAllocate) {
  Scheduler s;
  // Warm up: populate the slab, the heap vector, and the free list beyond
  // the deepest level the steady-state loop will touch.
  std::vector<EventId> warm;
  for (int i = 0; i < 256; ++i) {
    warm.push_back(s.schedule_in(SimTime::micros(i % 37 + 1), [] {}));
  }
  for (std::size_t i = 0; i < warm.size(); i += 2) s.cancel(warm[i]);
  s.run();

  // Steady state: a 48-byte capture cycled through schedule_in + step must
  // never touch the heap (inline callback storage, slab slot reuse).
  struct Capture {
    std::uint64_t a, b, c;
    double d, e, f;
  };
  Capture cap{1, 2, 3, 4.0, 5.0, 6.0};
  static_assert(sizeof(Capture) <= EventCallback::kInlineBytes);
  std::uint64_t sink = 0;
  AllocationCounter counter;
  for (int i = 0; i < 10'000; ++i) {
    s.schedule_in(SimTime::micros(i % 97 + 1), [cap, &sink] { sink += cap.a; });
    s.step();
  }
  EXPECT_EQ(counter.delta(), 0u) << "schedule_in + step allocated on the "
                                    "steady-state hot path";
  EXPECT_EQ(sink, 10'000u);
}

TEST(SchedulerPool, CancellationChurnDoesNotAllocateAfterWarmup) {
  Scheduler s;
  std::vector<EventId> ids;
  ids.reserve(64);
  // Warm-up round grows every structure to its steady-state footprint.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 64; ++i) {
      ids.push_back(s.schedule_in(SimTime::micros(i % 17 + 1), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
    s.run();
    ids.clear();
  }
  AllocationCounter counter;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) {
      ids.push_back(s.schedule_in(SimTime::micros(i % 17 + 1), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
    s.run();
    ids.clear();
  }
  EXPECT_EQ(counter.delta(), 0u);
}

// --- packet pool ------------------------------------------------------------

TEST(SchedulerPool, PacketPoolRecyclesSteadyStateCheckouts) {
  Simulator sim{1};
  // Warm up: the first checkout/release cycle populates the free list.
  for (int i = 0; i < 8; ++i) {
    auto p = sim.make_packet();
    p->size_bytes = 100;
  }
  ASSERT_GT(sim.packet_pool().free_count(), 0u);
  const std::size_t warm_heap = sim.packet_pool().heap_allocations();
  AllocationCounter counter;
  for (int i = 0; i < 10'000; ++i) {
    auto p = sim.make_packet();
    p->size_bytes = i;
  }
  EXPECT_EQ(sim.packet_pool().heap_allocations(), warm_heap)
      << "pool checkout touched the global heap in steady state";
  EXPECT_EQ(counter.delta(), 0u);
}

// --- multicast fan-out --------------------------------------------------------

TEST(SchedulerPool, MulticastFanoutDoesNotAllocateAfterWarmup) {
  // Bursts of multicast packets through a 64-leaf star: besides scheduler
  // slots and pooled packets, each fan-out takes a completion batch from
  // the hub's free list, several of them in flight at once.  The leaves'
  // jitter spreads each batch's arrivals, so every arrival run is sorted
  // through the batch's recycled buffers.
  constexpr int kLeaves = 64;
  constexpr int kBurst = 4;
  Simulator sim{1};
  Topology topo{sim};
  LinkConfig cfg;
  cfg.rate_bps = 10e6;
  cfg.delay = 2_ms;
  LinkConfig leaf = cfg;
  leaf.jitter = 1_ms;
  const Star star =
      make_star(topo, cfg, std::vector<LinkConfig>(kLeaves, leaf));
  const GroupId g = topo.create_group(star.sender);
  struct CountingAgent final : Agent {
    void handle_packet(const Packet&) override { ++count; }
    std::int64_t count{0};
  } agent;
  for (NodeId leaf : star.leaves) {
    topo.node(leaf).attach_agent(5, &agent);
    topo.join(g, leaf);
  }
  auto fan_out = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < kBurst; ++i) {
        auto p = sim.make_packet();
        p->src = star.sender;
        p->group = g;
        p->dport = 5;
        p->size_bytes = 1000;
        topo.node(star.sender).send(p);
      }
      sim.run();
    }
  };
  // Warm-up: each leaf draws one jitter word per copy straight from its
  // stream's engine, built in the arena at the first copy with no prefix;
  // the rounds also fill the scheduler, packet and batch free lists.
  constexpr int kWarmRounds = Rng::kPrefixWords / kBurst + 1;
  fan_out(kWarmRounds);
  const std::size_t warm_heap = sim.packet_pool().heap_allocations();
  AllocationCounter counter;
  fan_out(50);
  EXPECT_EQ(counter.delta(), 0u) << "multicast fan-out allocated in steady state";
  EXPECT_EQ(sim.packet_pool().heap_allocations(), warm_heap);
  EXPECT_EQ(agent.count, std::int64_t{kWarmRounds + 50} * kBurst * kLeaves);
}

TEST(SchedulerPool, PacketPoolStampsUidAndCreationTime) {
  Simulator sim{1};
  auto a = sim.make_packet();
  auto b = sim.make_packet();
  EXPECT_NE(a->uid, b->uid);
  sim.in(5_ms, [] {});
  sim.run();
  auto c = sim.make_packet();
  EXPECT_EQ(c->created, sim.now());
}

TEST(SchedulerPool, RecycledPacketStartsFresh) {
  Simulator sim{1};
  {
    auto p = sim.make_packet();
    p->size_bytes = 999;
    p->group = 3;
  }
  auto q = sim.make_packet();
  // The recycled block must be a freshly constructed Packet, not the old
  // occupant's state.
  EXPECT_EQ(q->size_bytes, 0);
  EXPECT_EQ(q->group, kNoGroup);
}

TEST(SchedulerPool, FixedBlockPoolFreesItsFreeListOnDestruction) {
  // Covered implicitly by every test above under ASan; this exercises the
  // explicit path: park blocks, destroy the pool, no leak, no crash.
  FixedBlockPool pool;
  void* a = pool.allocate(64);
  void* b = pool.allocate(64);
  pool.deallocate(a, 64);
  pool.deallocate(b, 64);
  EXPECT_EQ(pool.free_count(), 2u);
}

TEST(SchedulerPool, FixedBlockPoolPassesThroughOffSizeBlocks) {
  FixedBlockPool pool;
  void* a = pool.allocate(64);  // learns block size 64
  void* other = pool.allocate(128);
  pool.deallocate(other, 128);  // off-size: straight to the heap
  EXPECT_EQ(pool.free_count(), 0u);
  pool.deallocate(a, 64);
  EXPECT_EQ(pool.free_count(), 1u);
  void* again = pool.allocate(64);
  EXPECT_EQ(again, a);  // recycled, not a fresh block
  pool.deallocate(again, 64);
}

}  // namespace
}  // namespace tfmcc
