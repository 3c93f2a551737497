#pragma once

#include "tfmcc/config.hpp"
#include "util/rng.hpp"

namespace tfmcc {

/// The biased exponentially-distributed feedback timers of §2.5.1.
///
/// This is deliberately a standalone, pure function module: the protocol
/// receiver and the analytic feedback-round models (figs. 1–6) draw from the
/// *same* implementation, so the analysis figures exercise production code.
namespace feedback_timer {

/// Truncate-and-normalise the rate ratio (§2.5.1):
///   x' = (clamp(x, 0.5, 0.9) - 0.5) / 0.4
/// Biasing starts only below 90% of the sending rate and saturates at 50%.
double truncate_ratio(double x);

/// Draw a feedback delay in units of T (the round's maximum feedback time).
///
/// `x` is the ratio of the receiver's calculated rate to the current sending
/// rate, in [0, 1]; lower x (== more urgent feedback) yields earlier timers
/// for the biased methods.  The result is in [0, 1] (multiply by T).
double draw(double x, const FeedbackTimerConfig& cfg, Rng& rng);

/// Deterministic timer transform: the delay produced for uniform variate
/// u in (0, 1].  `draw` is `from_uniform(rng.uniform01(), ...)`; the
/// analytic models integrate over u directly.
double from_uniform(double u, double x, const FeedbackTimerConfig& cfg);

/// The closed-form CDF P(timer <= t), t in units of T, for worst-case x = 0
/// (unbiased) or the given x (biased methods).  Used by fig. 1 and by the
/// expected-feedback-count model of fig. 4.
double cdf(double t, double x, const FeedbackTimerConfig& cfg);

/// Conservative uniform ceiling for timer value `t` (units of T): every
/// u > uniform_ceiling(t, cfg) gives from_uniform(u, x, cfg) >= t, whatever
/// x is.  The offset methods add a non-negative bias to c * base_timer(u)
/// (c = 1 - zeta; 1 when unbiased), so the bound is N^(t/c - 1) plus a
/// relative margin that absorbs log/pow rounding.  Returns a value above 1
/// (rules nothing out) for kModifiedN, whose N depends on x, and whenever
/// zeta < 0, c <= 0 or N <= 1 break the argument.
double uniform_ceiling(double t, const FeedbackTimerConfig& cfg);

}  // namespace feedback_timer

}  // namespace tfmcc
