#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_ms);
}

TEST(Scheduler, FifoTieBreakAtEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventId id = s.schedule_at(1_ms, [&] { fired = true; });
  EXPECT_TRUE(id.pending());
  s.cancel(id);
  EXPECT_FALSE(id.pending());
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeOnEmptyId) {
  Scheduler s;
  EventId empty;
  s.cancel(empty);  // must not crash
  EventId id = s.schedule_at(1_ms, [] {});
  s.cancel(id);
  s.cancel(id);
  s.run();
}

TEST(Scheduler, EmptyReportsTrueWhenOnlyCancelledEventsRemain) {
  // Regression: empty() used to answer from the raw heap, reporting false
  // while every remaining entry was cancelled (i.e. semantically gone).
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EventId a = s.schedule_at(1_ms, [] {});
  EventId b = s.schedule_at(2_ms, [] {});
  EXPECT_FALSE(s.empty());
  s.cancel(a);
  EXPECT_FALSE(s.empty());  // b is still pending
  s.cancel(b);
  EXPECT_TRUE(s.empty());
  // step()/run() semantics are unchanged: nothing left to execute.
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.executed(), 0u);
  EXPECT_EQ(s.now(), SimTime::zero());
}

TEST(Scheduler, EmptyDropsCancelledHeadButKeepsLivePendingEvent) {
  Scheduler s;
  EventId head = s.schedule_at(1_ms, [] {});
  bool fired = false;
  s.schedule_at(2_ms, [&] { fired = true; });
  s.cancel(head);
  EXPECT_FALSE(s.empty());
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RejectsEmptyCallbackAtScheduleTime) {
  // Regression: an empty EventCallback used to be accepted and blow up
  // step() with std::bad_function_call far from the offending call site.
  Scheduler s;
  EXPECT_THROW(s.schedule_at(1_ms, EventCallback{}), std::logic_error);
  EXPECT_THROW(s.schedule_in(1_ms, nullptr), std::logic_error);
  EXPECT_TRUE(s.empty());  // the rejected event was never enqueued
  s.run();                 // and the scheduler is still usable
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Scheduler, ReservedSeqRunsWhereScheduleAtWouldHave) {
  // Two schedulers see the same calls, except that event 3 is scheduled
  // directly in the first and, in the second, only once the clock has
  // reached its time and two ties have run, under a sequence number
  // reserved where the first scheduled it.  Both must run the same order
  // among the ties at 5 ms scheduled before and after the reservation.
  auto log = [](std::vector<int>& order, int v) {
    return [&order, v] { order.push_back(v); };
  };
  std::vector<int> direct;
  std::vector<int> reserved;
  Scheduler a;
  Scheduler b;
  std::uint64_t seq = 0;
  a.schedule_at(5_ms, log(direct, 0));
  b.schedule_at(5_ms, log(reserved, 0));
  a.schedule_at(1_ms, log(direct, 1));
  b.schedule_at(1_ms, log(reserved, 1));
  a.schedule_at(5_ms, log(direct, 2));
  b.schedule_at(5_ms, [&] {
    reserved.push_back(2);
    b.schedule_reserved(5_ms, seq, log(reserved, 3));
  });
  a.schedule_at(5_ms, log(direct, 3));
  seq = b.reserve_seq();
  for (Scheduler* s : {&a, &b}) {
    std::vector<int>& order = s == &a ? direct : reserved;
    s->schedule_at(5_ms, log(order, 4));
    s->schedule_at(7_ms, log(order, 5));
    s->schedule_at(5_ms, log(order, 6));
  }
  a.run();
  b.run();
  EXPECT_EQ(direct, (std::vector<int>{1, 0, 2, 3, 4, 6, 5}));
  EXPECT_EQ(reserved, direct);
  EXPECT_EQ(a.executed(), b.executed());

  // schedule_reserved rejects what schedule_at rejects, and a number that
  // was never reserved.
  Scheduler s;
  s.schedule_at(10_ms, [] {});
  s.run();
  const std::uint64_t r = s.reserve_seq();
  EXPECT_THROW(s.schedule_reserved(5_ms, r, [] {}), std::logic_error);
  EXPECT_THROW(s.schedule_reserved(10_ms, r, EventCallback{}),
               std::logic_error);
  EXPECT_THROW(s.schedule_reserved(10_ms, r + 1, [] {}), std::logic_error);
  EXPECT_TRUE(s.empty());
  bool fired = false;
  s.schedule_reserved(10_ms, r, [&fired] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

/// A fan-out's copies on a bare scheduler, shaped like Node's arrival run:
/// each copy's (time, seq) key is reserved when the fan-out is made, in time
/// order.  With `inline_run` one entry delivers the copies, taking the next
/// one in the same frame while Scheduler::take_next grants it; otherwise
/// every copy is its own event (the heap path).  Copy i logs 100 + i to
/// `order`, then calls `on_copy(i)` if set.
class Fanout {
 public:
  Fanout(Scheduler& s, const std::vector<SimTime>& times,
         std::vector<int>& order, bool inline_run,
         std::function<void(int)> on_copy = {})
      : state_{std::make_shared<State>(
            State{s, {}, order, std::move(on_copy)})} {
    for (SimTime t : times) state_->keys.push_back({t, s.reserve_seq()});
    if (inline_run) {
      const Key& head = state_->keys.front();
      s.schedule_reserved(head.t, head.seq, Run{state_, 0});
      return;
    }
    for (std::size_t i = 0; i < times.size(); ++i) {
      const Key& k = state_->keys[i];
      s.schedule_reserved(k.t, k.seq, [st = state_, i] { st->deliver(i); });
    }
  }

 private:
  struct Key {
    SimTime t;
    std::uint64_t seq;
  };
  struct State {
    Scheduler& s;
    std::vector<Key> keys;
    std::vector<int>& order;
    std::function<void(int)> on_copy;
    void deliver(std::size_t i) {
      order.push_back(100 + static_cast<int>(i));
      if (on_copy) on_copy(static_cast<int>(i));
    }
  };
  struct Run {
    std::shared_ptr<State> st;
    std::size_t next;
    void operator()() {
      for (;;) {
        st->deliver(next++);
        if (next == st->keys.size()) return;
        const Key& k = st->keys[next];
        if (!st->s.take_next(k.t, k.seq)) {
          st->s.schedule_reserved(k.t, k.seq, std::move(*this));
          return;
        }
      }
    }
  };
  std::shared_ptr<State> state_;
};

std::vector<SimTime> spaced_times(int n, SimTime first, SimTime gap) {
  std::vector<SimTime> times;
  for (int i = 0; i < n; ++i) times.push_back(first + gap * i);
  return times;
}

TEST(Scheduler, BareStepExecutesOneCopyOfAFanout) {
  Scheduler s;
  std::vector<int> order;
  Fanout f{s, spaced_times(64, 1_ms, SimTime::micros(10)), order, true};
  EXPECT_TRUE(s.step());
  EXPECT_EQ(order, (std::vector<int>{100}));
  EXPECT_EQ(s.executed(), 1u);
  EXPECT_EQ(s.now(), 1_ms);
  EXPECT_EQ(s.pending_count(), 1u);  // the run, keyed by copy 1
  // Outside any run loop take_next grants nothing either.
  EXPECT_FALSE(s.take_next(2_ms, s.reserve_seq()));
  EXPECT_EQ(s.executed(), 1u);
  s.run();
  EXPECT_EQ(order.size(), 64u);
  EXPECT_EQ(s.executed(), 64u);
}

TEST(Scheduler, RunUntilBoundLeavesLaterCopiesPending) {
  Scheduler s;
  std::vector<int> order;
  Fanout f{s, spaced_times(64, 1_ms, 1_ms), order, true};
  s.run_until(SimTime::micros(10'500));
  EXPECT_EQ(order.size(), 10u);
  EXPECT_EQ(s.now(), SimTime::micros(10'500));
  EXPECT_EQ(s.pending_count(), 1u);
  s.run_until(20_ms);  // the copy at the bound itself is delivered
  EXPECT_EQ(order.size(), 20u);
  EXPECT_EQ(order.back(), 119);
  EXPECT_EQ(s.now(), 20_ms);
  s.run();
  EXPECT_EQ(order.size(), 64u);
  EXPECT_EQ(s.executed(), 64u);
}

TEST(Scheduler, TakeNextRefusesWhenAPendingEventComesFirst) {
  // Copies at 1, 2, 3 and 4 ms.  Event 2 at 2 ms was scheduled before the
  // fan-out, so it precedes copy 1 by sequence number; event 3 at 2 ms was
  // scheduled after it and follows copy 1; event 4, scheduled by copy 1 at
  // 2.5 ms, precedes copy 2; event 1 at 3.5 ms precedes copy 3 by time.
  // The inline run must give the heap path's order and event count.
  std::vector<std::vector<int>> orders;
  std::vector<std::uint64_t> executed;
  for (bool inline_run : {false, true}) {
    Scheduler s;
    std::vector<int> order;
    auto log = [&order](int v) { return [&order, v] { order.push_back(v); }; };
    s.schedule_at(SimTime::micros(3500), log(1));
    s.schedule_at(2_ms, log(2));
    Fanout f{s, spaced_times(4, 1_ms, 1_ms), order, inline_run,
             [&s, &log](int i) {
               if (i == 1) s.schedule_at(SimTime::micros(2500), log(4));
             }};
    s.schedule_at(2_ms, log(3));
    s.run();
    orders.push_back(order);
    executed.push_back(s.executed());
  }
  EXPECT_EQ(orders[0], (std::vector<int>{100, 2, 101, 3, 4, 102, 1, 103}));
  EXPECT_EQ(orders[1], orders[0]);
  EXPECT_EQ(executed[1], executed[0]);

  // Directly: from a running event, a reserved key is granted while it
  // precedes the heap top, and the grant moves the clock and the count.
  Scheduler s;
  std::vector<bool> granted;
  s.schedule_at(1_ms, [&] {
    const std::uint64_t a = s.reserve_seq();
    const std::uint64_t b = s.reserve_seq();
    s.schedule_at(3_ms, [] {});
    granted.push_back(s.take_next(2_ms, a));
    EXPECT_EQ(s.now(), 2_ms);
    granted.push_back(s.take_next(4_ms, b));  // the 3 ms event comes first
    EXPECT_EQ(s.now(), 2_ms);
  });
  s.run();
  EXPECT_EQ(granted, (std::vector<bool>{true, false}));
  EXPECT_EQ(s.executed(), 3u);
}

TEST(Scheduler, EventLimitGuardOverAFanout) {
  // 64 copies tied at t = 0 ahead of an event that reschedules itself at
  // the current time forever: run(limit) must throw at the heap path's
  // executed() count, inside the fan-out or after it.
  for (std::uint64_t limit : {1u, 30u, 64u, 65u, 1000u}) {
    std::vector<std::uint64_t> executed;
    std::vector<std::vector<int>> orders;
    for (bool inline_run : {false, true}) {
      Scheduler s;
      std::vector<int> order;
      Fanout f{s, std::vector<SimTime>(64, SimTime::zero()), order,
               inline_run};
      std::function<void()> forever = [&] {
        s.schedule_in(SimTime::zero(), forever);
      };
      s.schedule_at(SimTime::zero(), forever);
      EXPECT_THROW(s.run(limit), std::runtime_error) << "limit " << limit;
      executed.push_back(s.executed());
      orders.push_back(order);
    }
    EXPECT_EQ(executed[0], limit);
    EXPECT_EQ(executed[1], executed[0]) << "limit " << limit;
    EXPECT_EQ(orders[1], orders[0]) << "limit " << limit;
  }
}

TEST(Scheduler, DebugBuildsCheckThatExecutedKeysIncrease) {
  // A reserved number used after a later-numbered event at the same time
  // has already run would execute out of (t, seq) order.  Debug builds stop
  // there, on the heap path and on the take_next path; release builds run
  // on.
  auto heap_path = [] {
    Scheduler s;
    const std::uint64_t r = s.reserve_seq();
    s.schedule_at(5_ms, [] {});
    s.run();
    s.schedule_reserved(5_ms, r, [] {});
    s.run();
  };
  auto inline_path = [] {
    Scheduler s;
    const std::uint64_t r = s.reserve_seq();
    s.schedule_at(5_ms, [&s, r] { s.take_next(5_ms, r); });
    s.run();
  };
  EXPECT_DEBUG_DEATH(heap_path(), "");
  EXPECT_DEBUG_DEATH(inline_path(), "");
}

TEST(Scheduler, EventIdNotPendingAfterFire) {
  Scheduler s;
  EventId id = s.schedule_at(1_ms, [] {});
  s.run();
  EXPECT_FALSE(id.pending());
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(10_ms, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5_ms, [] {}), std::logic_error);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule_in(1_ms, chain);
  };
  s.schedule_at(SimTime::zero(), chain);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 4_ms);
}

TEST(Scheduler, RunUntilStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&] { ++fired; });
  s.schedule_at(10_ms, [&] { ++fired; });
  s.run_until(5_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_ms);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunUntilExecutesEventAtBoundary) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(5_ms, [&] { fired = true; });
  s.run_until(5_ms);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, EventLimitGuard) {
  Scheduler s;
  std::function<void()> forever = [&] { s.schedule_in(SimTime::zero(), forever); };
  s.schedule_at(SimTime::zero(), forever);
  EXPECT_THROW(s.run(1000), std::runtime_error);
}

TEST(Scheduler, ExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(SimTime::millis(i), [] {});
  s.run();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(Scheduler, CancelledEventReleasesCallbackState) {
  Scheduler s;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> weak = token;
  EventId id = s.schedule_at(1_ms, [t = std::move(token)] { (void)t; });
  s.cancel(id);
  EXPECT_TRUE(weak.expired());  // captured state freed on cancellation
}

TEST(Simulator, FacadeSchedulesAndRuns) {
  Simulator sim{123};
  int fired = 0;
  sim.in(2_ms, [&] { ++fired; });
  sim.at(1_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2_ms);
}

TEST(Simulator, UidsAreUnique) {
  Simulator sim{1};
  EXPECT_NE(sim.next_uid(), sim.next_uid());
}

TEST(Simulator, RngStreamsReproducible) {
  Simulator a{99}, b{99};
  EXPECT_EQ(a.make_rng(5).next_u64(), b.make_rng(5).next_u64());
}

}  // namespace
}  // namespace tfmcc
