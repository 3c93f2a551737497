// Property tests for the time-warped event schedules (sim/schedule.hpp):
// under any warp factor, a script keeps its event order and relative
// spacing, never fires past the horizon, and an identity warp is exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/schedule.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

std::vector<SimTime> random_script(Rng& rng, SimTime ref_horizon, int n) {
  std::vector<SimTime> times;
  times.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    times.push_back(SimTime::nanos(
        rng.uniform_int(0, ref_horizon.count_nanos())));
  }
  std::sort(times.begin(), times.end());
  return times;
}

TEST(TimeWarpProperty, OrderAndHorizonPreservedUnderAnyWarp) {
  Rng rng{2024};
  for (int iter = 0; iter < 200; ++iter) {
    const SimTime ref = SimTime::seconds(rng.uniform(1.0, 1000.0));
    // Warp factors from deep compression (0.01x) to dilation (10x).
    const SimTime actual = ref * rng.uniform(0.01, 10.0);
    const TimeWarp warp{ref, actual};
    const auto script = random_script(rng, ref, 20);
    SimTime prev = SimTime::zero();
    for (const SimTime t : script) {
      const SimTime w = warp(t);
      ASSERT_GE(w, prev) << "order violated at iter " << iter;
      ASSERT_GE(w, SimTime::zero());
      ASSERT_LE(w, actual) << "event past the horizon at iter " << iter;
      prev = w;
    }
  }
}

TEST(TimeWarpProperty, RelativeSpacingScalesWithTheFactor) {
  Rng rng{77};
  for (int iter = 0; iter < 200; ++iter) {
    const SimTime ref = SimTime::seconds(rng.uniform(10.0, 500.0));
    const SimTime actual = ref * rng.uniform(0.02, 5.0);
    const TimeWarp warp{ref, actual};
    const auto script = random_script(rng, ref, 10);
    for (std::size_t i = 1; i < script.size(); ++i) {
      const double ref_gap = static_cast<double>(
          (script[i] - script[i - 1]).count_nanos());
      const double warped_gap = static_cast<double>(
          (warp(script[i]) - warp(script[i - 1])).count_nanos());
      // Each endpoint rounds to within half a nanosecond.
      EXPECT_NEAR(warped_gap, ref_gap * warp.factor(), 1.0)
          << "spacing broken at iter " << iter;
    }
  }
}

TEST(TimeWarpProperty, IdentityWarpIsExact) {
  Rng rng{13};
  for (int iter = 0; iter < 50; ++iter) {
    const SimTime ref = SimTime::nanos(rng.uniform_int(1, 400'000'000'000));
    const TimeWarp warp{ref, ref};
    EXPECT_TRUE(warp.is_identity());
    EXPECT_EQ(warp.factor(), 1.0);
    for (int k = 0; k < 20; ++k) {
      const SimTime t = SimTime::nanos(rng.uniform_int(0, ref.count_nanos()));
      EXPECT_EQ(warp(t), t);  // bit-exact, not within-epsilon
    }
  }
}

TEST(TimeWarpProperty, TimesBeyondTheReferenceClampToTheHorizon) {
  const TimeWarp warp{100_sec, 10_sec};
  EXPECT_EQ(warp(200_sec), 10_sec);
  EXPECT_EQ(warp(100_sec), 10_sec);
  const TimeWarp identity{100_sec, 100_sec};
  EXPECT_EQ(identity(250_sec), 100_sec);
}

TEST(ScheduleBuilderProperty, EventsFireInScriptOrderWithinTheHorizon) {
  Rng rng{99};
  for (int iter = 0; iter < 25; ++iter) {
    const SimTime ref = SimTime::seconds(rng.uniform(50.0, 400.0));
    const SimTime actual = ref * rng.uniform(0.02, 2.0);
    Simulator sim{1};
    ScheduleBuilder sched{sim, ref, actual};
    const auto script = random_script(rng, ref, 12);
    std::vector<int> fired_order;
    std::vector<SimTime> fired_at;
    for (std::size_t i = 0; i < script.size(); ++i) {
      sched.at(script[i], [&, i] {
        fired_order.push_back(static_cast<int>(i));
        fired_at.push_back(sim.now());
      });
    }
    EXPECT_EQ(sched.scheduled(), 12);
    sim.run_until(actual);
    // Every event fires (none dropped past the horizon), in script order.
    EXPECT_EQ(sched.fired(), 12);
    ASSERT_EQ(fired_order.size(), 12u);
    EXPECT_TRUE(std::is_sorted(fired_order.begin(), fired_order.end()));
    for (const SimTime t : fired_at) EXPECT_LE(t, actual);
  }
}

TEST(ScheduleBuilderProperty, WarpedAgreesWithTheUnderlyingTimeWarp) {
  Simulator sim{1};
  ScheduleBuilder sched{sim, 400_sec, 20_sec};
  const TimeWarp warp{400_sec, 20_sec};
  Rng rng{5};
  for (int k = 0; k < 100; ++k) {
    const SimTime t = SimTime::nanos(rng.uniform_int(0, 400'000'000'000));
    EXPECT_EQ(sched.warped(t), warp(t));
  }
}

}  // namespace
}  // namespace tfmcc
