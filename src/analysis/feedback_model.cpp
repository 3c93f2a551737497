#include "analysis/feedback_model.hpp"

#include <algorithm>
#include <cmath>

#include "tfmcc/feedback_timer.hpp"

namespace tfmcc::feedback_model {

namespace {
constexpr int kGrid = 20000;
}  // namespace

double expected_messages(int n, double t_max, double delay, double x,
                         const FeedbackTimerConfig& cfg) {
  if (n <= 1) return static_cast<double>(n);
  // Integrate over the uniform variate u; g(u) is the timer in units of T'.
  // F(t) = P(timer <= t) comes from the same closed-form CDF the protocol's
  // timer module exposes.
  double acc = 0.0;
  for (int i = 0; i < kGrid; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / kGrid;
    const double t = feedback_timer::from_uniform(u, x, cfg) * t_max;
    const double thresh = (t - delay) / t_max;  // back to units of T'
    const double f = feedback_timer::cdf(thresh, x, cfg);
    acc += std::pow(1.0 - f, n - 1);
  }
  return static_cast<double>(n) * acc / kGrid;
}

}  // namespace tfmcc::feedback_model
