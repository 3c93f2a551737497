#include "sim/scheduler.hpp"

namespace tfmcc {

// The heap is 4-ary and cache-line aligned: the root sits at index
// kHeapRoot (3) so that every sibling group {4p-8 .. 4p-5} starts at an
// index divisible by 4 — with 16-byte entries and the 64-byte-aligned
// buffer, the min-child scan of a pop reads exactly one cache line per
// level.  A wider node also halves the tree depth vs. a binary heap.
// Order is decided only by HeapEntry::before() (time, then seq), so the
// arity and layout are unobservable.

void Scheduler::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > kHeapRoot) {
    const std::size_t parent = heap_parent(pos);
    if (!e.before(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos].slot()] = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  heap_pos_[e.slot()] = static_cast<std::uint32_t>(pos);
}

void Scheduler::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = heap_first_child(pos);
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    heap_[pos] = heap_[best];
    heap_pos_[heap_[pos].slot()] = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  heap_pos_[e.slot()] = static_cast<std::uint32_t>(pos);
}

void Scheduler::heap_remove(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail itself
  heap_[pos] = last;
  heap_pos_[last.slot()] = static_cast<std::uint32_t>(pos);
  // The replacement may need to move either way relative to its new
  // neighbourhood.
  sift_down(pos);
  if (heap_pos_[last.slot()] == pos) sift_up(pos);
}

void Scheduler::release_slot(std::uint32_t slot) {
  heap_pos_[slot] = kNpos;
  ++generation_[slot];  // outstanding EventIds for this occupancy go stale
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

void Scheduler::reject(SimTime t) const {
  if (t < now_) {
    throw std::logic_error("Scheduler: event scheduled in the past (" +
                           t.str() + " < " + now_.str() + ")");
  }
  throw std::logic_error("Scheduler: empty event callback");
}

EventId Scheduler::insert(SimTime t, std::uint64_t seq,
                          EventCallback&& cb) {
  std::uint32_t slot;
  if (free_head_ != kNpos) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNpos;
  } else {
    if (slots_.size() >= kMaxSlots) {
      throw std::runtime_error("Scheduler: too many pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    generation_.push_back(0);
    heap_pos_.push_back(kNpos);
  }
  slots_[slot].cb = std::move(cb);
  heap_.push_back(HeapEntry{t, (seq << kSlotBits) | slot});
  sift_up(heap_.size() - 1);
  return EventId{this, slot, generation_[slot]};
}

void Scheduler::cancel(const EventId& id) {
  if (id.sched_ != this || !is_pending(id.slot_, id.generation_)) return;
  heap_remove(heap_pos_[id.slot_]);
  // Move the callback out and release the slot BEFORE destroying the
  // captured state: the capture's destructor may re-enter the scheduler
  // (cancel this very id again, schedule into the freed slot), which must
  // see the event as already gone.  The local's destruction at scope exit
  // still releases the captured state promptly.
  EventCallback cb = std::move(slots_[id.slot_].cb);
  release_slot(id.slot_);
}

void Scheduler::pop_min() {
  // Bottom-up pop: sink the root hole along the min-child path to a leaf
  // (d-1 comparisons per level, none against the reinserted element), then
  // sift the old tail up from that leaf.  The tail almost always belongs
  // near the bottom, so the sift_up usually terminates immediately — one
  // comparison per level cheaper than the textbook top-down sift.
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == kHeapRoot) return;
  std::size_t pos = kHeapRoot;
  for (;;) {
    const std::size_t first_child = heap_first_child(pos);
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    heap_[pos] = heap_[best];
    heap_pos_[heap_[pos].slot()] = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = tail;
  heap_pos_[tail.slot()] = static_cast<std::uint32_t>(pos);
  sift_up(pos);
}

/// Installs a run loop's RunFrame for its lifetime and restores the
/// enclosing one after, so a loop nested in an event leaves its caller's
/// bound and limit as they were.
class Scheduler::FrameScope {
 public:
  FrameScope(Scheduler& s, RunFrame f) : s_{s}, saved_{s.frame_} {
    s.frame_ = f;
  }
  ~FrameScope() { s_.frame_ = saved_; }
  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;

 private:
  Scheduler& s_;
  RunFrame saved_;
};

bool Scheduler::fire_next() {
  if (empty()) return false;
  const HeapEntry top = heap_[kHeapRoot];
  pop_min();
  Slot& s = slots_[top.slot()];
  assert(top.t >= now_);
  EventCallback cb = std::move(s.cb);
  // Release before invoking: the event is no longer pending from its own
  // callback's point of view, and the callback may schedule new events into
  // the freed slot.
  release_slot(top.slot());
  mark_executed(top.t, top.seq_slot >> kSlotBits);
  cb();
  return true;
}

bool Scheduler::step() {
  const FrameScope frame{*this, RunFrame{}};
  return fire_next();
}

void Scheduler::run(std::uint64_t limit) {
  run_until(SimTime::infinity(), limit);
}

void Scheduler::run_until(SimTime t, std::uint64_t limit) {
  const std::uint64_t start = executed_;
  const std::uint64_t cap =
      limit > ~std::uint64_t{0} - start ? ~std::uint64_t{0} : start + limit;
  const FrameScope frame{*this, RunFrame{t, cap}};
  while (!empty() && heap_[kHeapRoot].t <= t) {
    fire_next();
    if (executed_ - start >= limit) {
      throw std::runtime_error("Scheduler: event limit exceeded");
    }
  }
  if (t > now_ && !t.is_infinite()) now_ = t;
}

}  // namespace tfmcc
