#pragma once

#include <vector>

#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tfmcc::scaling {

/// The §3 loss-path-multiplicity model behind fig. 7.
///
/// Each of n receivers measures its loss event rate as the TFRC weighted
/// average of `depth` loss intervals; with independent loss the intervals
/// are exponentially distributed, the averages are (scaled) gamma
/// distributed, and the sender tracks the *minimum* calculated rate over
/// receivers — so throughput decays with n even at constant loss.

struct ModelConfig {
  double packet_bytes{1000.0};
  SimTime rtt{SimTime::millis(50)};
  int history_depth{8};  // loss intervals in the TFRC average
  int trials{300};
  /// Apply TFRC's open-interval rule: the (inspection-paradox-distributed)
  /// interval since the last loss event is included when it raises the
  /// average.  This substantially lifts the low tail of the estimate
  /// distribution and thus the expected minimum.
  bool include_open_interval{true};
  /// Use the simplified (Mathis) response function instead of the full
  /// Padhye equation.  The full equation collapses much harder at the high
  /// effective loss rates the minimum tracks.
  bool use_simple_equation{false};
};

/// Expected TFMCC throughput (bytes/s) when receiver i has loss event rate
/// loss_rates[i], via Monte Carlo over the interval-averaging process.
double expected_min_rate_Bps(const std::vector<double>& loss_rates,
                             const ModelConfig& cfg, Rng& rng);

/// The fair rate: throughput the control equation grants the *worst*
/// receiver with a noise-free loss estimate.
double fair_rate_Bps(const std::vector<double>& loss_rates,
                     const ModelConfig& cfg);

/// n receivers with identical loss probability p (fig. 7 "constant").
std::vector<double> constant_losses(int n, double p);

/// The stratified loss mix of §3 (fig. 7 "distrib."): ~c*log(n) receivers
/// at 5-10% loss, ~3c*log(n) at 2-5%, the vast majority at 0.5-2%.
std::vector<double> stratified_losses(int n, Rng& rng, double c = 1.5);

}  // namespace tfmcc::scaling
