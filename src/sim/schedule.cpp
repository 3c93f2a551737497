#include "sim/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "sim/simulator.hpp"

namespace tfmcc {

TimeWarp::TimeWarp(SimTime reference_horizon, SimTime actual_horizon)
    : reference_{std::max(reference_horizon, SimTime::nanos(1))},
      actual_{std::max(actual_horizon, SimTime::zero())},
      factor_{static_cast<double>(actual_.count_nanos()) /
              static_cast<double>(reference_.count_nanos())},
      identity_{actual_ == reference_} {
  if (identity_) factor_ = 1.0;  // exact, not a computed quotient
}

SimTime TimeWarp::operator()(SimTime reference_time) const {
  if (identity_) return std::clamp(reference_time, SimTime::zero(), actual_);
  const double ns =
      static_cast<double>(reference_time.count_nanos()) * factor_;
  const SimTime t = SimTime::nanos(std::llround(ns));
  return std::clamp(t, SimTime::zero(), actual_);
}

ScheduleBuilder::ScheduleBuilder(Simulator& sim, SimTime reference_horizon,
                                 SimTime actual_horizon)
    : sim_{sim}, warp_{reference_horizon, actual_horizon} {}

ScheduleBuilder& ScheduleBuilder::at(SimTime reference_time,
                                     std::function<void()> cb) {
  ++scheduled_;
  sim_.at(warp_(reference_time),
          [fired = fired_, cb = std::move(cb)] {
            ++*fired;
            cb();
          });
  return *this;
}

}  // namespace tfmcc
