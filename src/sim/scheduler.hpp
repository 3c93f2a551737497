#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/sim_time.hpp"

namespace tfmcc {

/// Move-only callable stored inline, sized so every event callback in the
/// simulator (a few pointers plus a PacketPtr) fits.  A larger capture is a
/// compile error, so scheduling never allocates.
class EventCallback {
 public:
  /// Inline capture budget.  64 bytes holds a vtable-free lambda with up to
  /// eight pointer-sized captures — every callback in the simulator fits.
  static constexpr std::size_t kInlineBytes = 64;

  EventCallback() = default;
  EventCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "EventCallback: capture exceeds kInlineBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>,
                  "EventCallback: capture must be nothrow-movable and at "
                  "most max_align_t aligned");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &ops<Fn>;
  }

  EventCallback(EventCallback&& o) noexcept { move_from(o); }
  EventCallback& operator=(EventCallback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  /// Destroys the held callable (releasing its captured state) and becomes
  /// empty.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    /// Relocate: move-construct into `to` and destroy the source.
    void (*relocate)(void* from, void* to);
  };

  template <typename Fn>
  static constexpr Ops ops{
      [](void* obj) { (*static_cast<Fn*>(obj))(); },
      [](void* obj) { static_cast<Fn*>(obj)->~Fn(); },
      [](void* from, void* to) {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      }};

  void move_from(EventCallback& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) ops_->relocate(o.buf_, buf_);
    o.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_{nullptr};
};

class Scheduler;

/// Handle to a scheduled event; allows cancellation.  A generation-counted
/// {slot, generation} pair into the scheduler's event pool: trivially
/// copyable, no ownership, and immune to slot reuse (a recycled slot bumps
/// its generation, so stale handles report not-pending instead of aliasing
/// the new occupant).  A default-constructed id refers to nothing.
class EventId {
 public:
  EventId() = default;

  /// True while the event is scheduled and neither fired nor cancelled.
  bool pending() const;

 private:
  friend class Scheduler;
  EventId(const Scheduler* sched, std::uint32_t slot, std::uint32_t generation)
      : sched_{sched}, slot_{slot}, generation_{generation} {}

  const Scheduler* sched_{nullptr};
  std::uint32_t slot_{0};
  std::uint32_t generation_{0};
};

/// Discrete-event scheduler.
///
/// Events at equal timestamps fire in insertion order (FIFO tie-break via a
/// monotonically increasing sequence number), which together with the
/// integer time base makes runs fully deterministic.  The (time, seq) key is
/// a strict total order, so execution order is independent of the heap's
/// internal layout.
///
/// Storage is a slab of pooled event records addressed by an index-tracked
/// 4-ary min-heap: scheduling reuses free slots, cancellation removes the
/// event from the heap in place (no tombstones), and steady-state
/// schedule/step cycles perform zero heap allocations once the slab and the
/// callbacks' inline buffers have warmed up.
class Scheduler {
 public:
  Scheduler() {
    slots_.reserve(kInitialCapacity);
    heap_.reserve(kInitialCapacity + kHeapRoot);
    // Padding below the root keeps every 4-child sibling group on one
    // 64-byte line (see kHeapRoot).
    heap_.resize(kHeapRoot);
  }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  EventId schedule_at(SimTime t, EventCallback cb) {
    check_event(t, cb);
    return insert(t, reserve_seq(), std::move(cb));
  }
  EventId schedule_in(SimTime delay, EventCallback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Takes the sequence number the next schedule_at would use, without
  /// scheduling anything.  An event later scheduled with it through
  /// schedule_reserved runs exactly where one scheduled now at the same
  /// time would have: after every event scheduled before the reservation
  /// and before every event scheduled after it, among events at its time.
  std::uint64_t reserve_seq() {
    if (next_seq_ >= kMaxSeq) {
      throw std::runtime_error("Scheduler: sequence space exhausted");
    }
    return next_seq_++;
  }

  /// Schedules `cb` at `t` under a sequence number from reserve_seq().
  /// Each reserved number keys at most one pending event at a time.
  EventId schedule_reserved(SimTime t, std::uint64_t seq, EventCallback cb) {
    check_event(t, cb);
    if (seq >= next_seq_) {
      throw std::logic_error("Scheduler: sequence number not reserved");
    }
    return insert(t, seq, std::move(cb));
  }

  /// Cancel a pending event.  Safe to call on already-fired, already-
  /// cancelled, or empty ids.  Removes the event from the heap immediately
  /// and releases its captured state.
  void cancel(const EventId& id);

  /// Execute the next pending event.  Returns false when the queue is empty.
  /// Exactly one event: take_next refuses inside a bare step().
  bool step();

  /// Lets the running event execute, in its own frame, the event keyed
  /// (t, seq) under a number from reserve_seq() that it has not scheduled,
  /// when that is the event the run loop would execute next: (t, seq)
  /// precedes every pending event, t is within the current run_until bound
  /// (run(): none), and the loop's event limit is not reached.  A grant
  /// moves the clock to t and counts the event as executed, as step() would
  /// have; a refusal changes nothing, and the caller schedules the key.
  bool take_next(SimTime t, std::uint64_t seq) {
    if (executed_ >= frame_.executed_cap || t > frame_.bound) return false;
    if (!empty() && !HeapEntry{t, seq << kSlotBits}.before(heap_[kHeapRoot])) {
      return false;
    }
    assert(t >= now_ && seq < next_seq_);
    mark_executed(t, seq);
    return true;
  }

  /// Run until the queue drains or `limit` events have executed.
  void run(std::uint64_t limit = kDefaultEventLimit);

  /// Run all events with time <= t, then advance the clock to exactly t.
  void run_until(SimTime t, std::uint64_t limit = kDefaultEventLimit);

  std::uint64_t executed() const { return executed_; }
  bool empty() const { return heap_.size() <= kHeapRoot; }
  std::size_t pending_count() const { return heap_.size() - kHeapRoot; }

  /// Safety valve for runaway simulations (e.g. a bug that reschedules at
  /// the current time forever).  Exceeding it throws.
  static constexpr std::uint64_t kDefaultEventLimit = 2'000'000'000;

 private:
  friend class EventId;

  static constexpr std::uint32_t kNpos = 0xffffffffu;
  static constexpr std::size_t kInitialCapacity = 64;

  struct Slot {
    EventCallback cb;
    /// Free-list link while the slot is unused.
    std::uint32_t next_free{kNpos};
  };

  /// Heap entries carry their own (time, seq) sort key so sifting compares
  /// 16-byte entries — a 4-ary node is exactly one cache line — instead of
  /// chasing into the fat callback slots.  seq and slot share one word:
  /// seq in the high 40 bits (unique, the FIFO tie-break), slot in the low
  /// 24 (never reached by the comparison, since seqs always differ).  The
  /// key is a strict total order, so execution order is independent of the
  /// heap's layout.
  struct HeapEntry {
    SimTime t;
    std::uint64_t seq_slot;  // (seq << kSlotBits) | slot

    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
    bool before(const HeapEntry& o) const {
      if (t != o.t) return t < o.t;
      return seq_slot < o.seq_slot;
    }
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  /// Ceilings implied by the packed word: 16M concurrently pending events
  /// and 2^40 (~1.1e12) events per scheduler lifetime.  Both are far past
  /// anything a simulation reaches; insert and reserve_seq enforce them
  /// anyway.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << 40;

  /// The heap root lives at index 3, not 0: with 16-byte entries and a
  /// 64-byte-aligned buffer, children {4p-8 .. 4p-5} of every node then
  /// start at an index divisible by 4, i.e. each sibling group is exactly
  /// one cache line — the min-child scan in a pop touches one line per
  /// level instead of straddling two.
  static constexpr std::size_t kHeapRoot = 3;
  static std::size_t heap_parent(std::size_t pos) { return pos / 4 + 2; }
  static std::size_t heap_first_child(std::size_t pos) { return 4 * pos - 8; }

  /// Minimal 64-byte-aligning allocator for the heap buffer.
  template <typename T>
  struct HeapAlloc {
    using value_type = T;
    HeapAlloc() = default;
    template <typename U>
    HeapAlloc(const HeapAlloc<U>&) {}  // NOLINT(google-explicit-constructor)
    T* allocate(std::size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t) {
      ::operator delete(p, std::align_val_t{64});
    }
    friend bool operator==(const HeapAlloc&, const HeapAlloc&) { return true; }
    friend bool operator!=(const HeapAlloc&, const HeapAlloc&) { return false; }
  };

  /// Rejects a past time or an empty callback at the call site, instead of
  /// an invalid-callback crash out of step() arbitrarily later.
  void check_event(SimTime t, const EventCallback& cb) const {
    if (t < now_ || !cb) [[unlikely]] reject(t);
  }
  [[noreturn]] void reject(SimTime t) const;
  /// The one insert path: a free slot for `cb`, keyed (t, seq) in the heap.
  EventId insert(SimTime t, std::uint64_t seq, EventCallback&& cb);

  bool is_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && generation_[slot] == generation &&
           heap_pos_[slot] != kNpos;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_remove(std::size_t pos);
  /// Removes heap_[0] (already copied out by the caller) via a bottom-up
  /// hole sink — cheaper than heap_remove(0) on the every-event pop path.
  void pop_min();

  /// Pops the heap's top event and runs it.  Returns false when empty.
  bool fire_next();

  /// Advances the clock to an executing event's key and counts it.  Debug
  /// builds check that executed keys strictly increase, whichever path ran
  /// the event.
  void mark_executed(SimTime t, [[maybe_unused]] std::uint64_t seq) {
#ifndef NDEBUG
    assert(executed_ == 0 || last_t_ < t || (last_t_ == t && last_seq_ < seq));
    last_t_ = t;
    last_seq_ = seq;
#endif
    now_ = t;
    ++executed_;
  }

  /// What take_next may grant inside the innermost run loop: keys at or
  /// before `bound`, while executed_ < `executed_cap`.  The default, in
  /// force outside run() and run_until() and inside step(), grants nothing.
  struct RunFrame {
    SimTime bound{SimTime::zero()};
    std::uint64_t executed_cap{0};
  };
  class FrameScope;

  /// Detach the slot from the heap bookkeeping, bump its generation (so
  /// outstanding EventIds go stale) and push it on the free list.  The
  /// callback is left in place for the caller to move out or reset.
  void release_slot(std::uint32_t slot);

  std::vector<Slot> slots_;
  // Parallel to slots_, kept out of Slot on purpose: sifting updates a
  // slot's heap position once per level, and a dense 4-byte array keeps
  // those writes in cache where the 80-byte callback slots would not be.
  std::vector<std::uint32_t> generation_;
  std::vector<std::uint32_t> heap_pos_;  // kNpos when free or executing
  // 4-ary min-heap on (t, seq); entries [0, kHeapRoot) are padding.
  std::vector<HeapEntry, HeapAlloc<HeapEntry>> heap_;
  std::uint32_t free_head_{kNpos};
  SimTime now_{SimTime::zero()};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  RunFrame frame_;
#ifndef NDEBUG
  SimTime last_t_{SimTime::zero()};
  std::uint64_t last_seq_{0};
#endif
};

inline bool EventId::pending() const {
  return sched_ != nullptr && sched_->is_pending(slot_, generation_);
}

}  // namespace tfmcc
