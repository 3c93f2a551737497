#include "tfmcc/feedback_timer.hpp"

#include <algorithm>
#include <cmath>

namespace tfmcc::feedback_timer {

namespace {

constexpr double kMinModifiedN = 2.0;

double effective_n(double x, const FeedbackTimerConfig& cfg) {
  return std::max(kMinModifiedN, cfg.n_estimate * std::clamp(x, 0.0, 1.0));
}

/// max(0, 1 + log_N(u)) for u in (0,1]: the basic exponential timer, Eq. (2).
double base_timer(double u, double n) { return std::max(0.0, 1.0 + std::log(u) / std::log(n)); }

/// CDF of base_timer at t in [0,1]:  P(u <= N^(t-1)) = N^(t-1).
double base_cdf(double t, double n) {
  if (t < 0.0) return 0.0;
  if (t >= 1.0) return 1.0;
  return std::pow(n, t - 1.0);
}

}  // namespace

double truncate_ratio(double x) {
  return (std::clamp(x, 0.5, 0.9) - 0.5) / 0.4;
}

double draw(double x, const FeedbackTimerConfig& cfg, Rng& rng) {
  return from_uniform(rng.uniform01(), x, cfg);
}

double bias(double x, const FeedbackTimerConfig& cfg) {
  switch (cfg.method) {
    case BiasMethod::kOffset:
      return cfg.zeta * std::clamp(x, 0.0, 1.0);
    case BiasMethod::kModifiedOffset:
      return cfg.zeta * truncate_ratio(x);
    default:
      return 0.0;
  }
}

double from_uniform(double u, double x, const FeedbackTimerConfig& cfg) {
  switch (cfg.method) {
    case BiasMethod::kUnbiased:
      return base_timer(u, cfg.n_estimate);
    case BiasMethod::kOffset:
    case BiasMethod::kModifiedOffset:
      return bias(x, cfg) + (1.0 - cfg.zeta) * base_timer(u, cfg.n_estimate);
    case BiasMethod::kModifiedN:
      return base_timer(u, effective_n(x, cfg));
  }
  return base_timer(u, cfg.n_estimate);
}

double cdf(double t, double x, const FeedbackTimerConfig& cfg) {
  switch (cfg.method) {
    case BiasMethod::kUnbiased:
      return base_cdf(t, cfg.n_estimate);
    case BiasMethod::kOffset: {
      const double off = cfg.zeta * std::clamp(x, 0.0, 1.0);
      return base_cdf((t - off) / (1.0 - cfg.zeta), cfg.n_estimate);
    }
    case BiasMethod::kModifiedOffset: {
      const double off = cfg.zeta * truncate_ratio(x);
      return base_cdf((t - off) / (1.0 - cfg.zeta), cfg.n_estimate);
    }
    case BiasMethod::kModifiedN:
      return base_cdf(t, effective_n(x, cfg));
  }
  return base_cdf(t, cfg.n_estimate);
}

double uniform_ceiling(double t, const FeedbackTimerConfig& cfg,
                       double min_bias) {
  constexpr double kNoCeiling = 2.0;  // u is at most 1: nothing ruled out
  double c = 1.0;
  switch (cfg.method) {
    case BiasMethod::kUnbiased:
      break;
    case BiasMethod::kOffset:
    case BiasMethod::kModifiedOffset:
      if (!(cfg.zeta >= 0.0)) return kNoCeiling;
      c = 1.0 - cfg.zeta;
      // The margin below also absorbs the rounding of this difference and
      // of from_uniform's sum.
      t -= std::max(0.0, min_bias);
      break;
    case BiasMethod::kModifiedN:
      return kNoCeiling;
  }
  if (!(c > 0.0) || !(cfg.n_estimate > 1.0)) return kNoCeiling;
  // base_timer is increasing in u, and u >= N^(t/c - 1) means
  // c * base_timer(u) >= t.  The margin is absolute in log space, so it
  // also covers the cancellation in 1 + log(u)/log(N) near t = 0.
  return std::pow(cfg.n_estimate, t / c - 1.0) * (1.0 + 1e-9);
}

}  // namespace tfmcc::feedback_timer
