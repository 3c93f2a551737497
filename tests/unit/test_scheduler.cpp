#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

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
