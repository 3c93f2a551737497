#pragma once

// Time-warped event schedules for the scripted scenarios.
//
// The paper's event-scripted experiments (fig. 11's join/leave ladder,
// fig. 15/16's late join, fig. 20/21, the ablations) place their events at
// absolute times on a *reference* timeline — the horizon the figure was
// published with.  Running such a scenario with a different `--duration`
// used to silently drop every event past the new horizon; TimeWarp instead
// rescales the whole script proportionally, so a 20 s smoke run of a 400 s
// figure still exercises every join and leave, in order, with the same
// relative spacing.

#include <functional>
#include <memory>

#include "util/sim_time.hpp"

namespace tfmcc {

class Simulator;

/// Affine map from the reference timeline onto the actual horizon:
/// t -> t * (actual / reference), clamped to [0, actual].  When the two
/// horizons are equal the map is an exact identity (no floating-point
/// round-trip), which keeps default-duration runs byte-identical.
class TimeWarp {
 public:
  TimeWarp(SimTime reference_horizon, SimTime actual_horizon);

  SimTime operator()(SimTime reference_time) const;
  /// Scale factor actual/reference; exactly 1.0 for the identity map.
  double factor() const { return factor_; }
  bool is_identity() const { return identity_; }
  SimTime reference_horizon() const { return reference_; }
  SimTime horizon() const { return actual_; }

 private:
  SimTime reference_;
  SimTime actual_;
  double factor_;
  bool identity_;
};

/// Schedules scripted scenario events through a TimeWarp and tracks how many
/// actually executed — scenarios report that count in warped runs so smoke
/// tests can assert the whole script fired.
class ScheduleBuilder {
 public:
  ScheduleBuilder(Simulator& sim, SimTime reference_horizon,
                  SimTime actual_horizon);

  /// Schedule `cb` at the warped image of `reference_time`.
  ScheduleBuilder& at(SimTime reference_time, std::function<void()> cb);

  /// The warped image of a reference-timeline instant; scenarios also use
  /// this for measurement windows tied to scripted events.
  SimTime warped(SimTime reference_time) const { return warp_(reference_time); }
  SimTime horizon() const { return warp_.horizon(); }
  const TimeWarp& warp() const { return warp_; }

  int scheduled() const { return scheduled_; }
  int fired() const { return *fired_; }

 private:
  Simulator& sim_;
  TimeWarp warp_;
  int scheduled_{0};
  // Shared with the scheduled callbacks so the count survives moves of the
  // builder itself.
  std::shared_ptr<int> fired_{std::make_shared<int>(0)};
};

}  // namespace tfmcc
