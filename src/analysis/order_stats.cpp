#include "analysis/order_stats.hpp"

#include <cassert>
#include <cmath>
#include <random>
#include <stdexcept>

namespace tfmcc::order_stats {

namespace {

constexpr int kMaxIter = 500;
constexpr double kEps = 3e-12;

/// Series representation of P(a,x), valid (fast) for x < a+1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

/// Continued-fraction representation of Q(a,x) = 1 - P(a,x), for x >= a+1.
double gamma_q_cf(double a, double x) {
  constexpr double kFpMin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double reg_lower_incomplete_gamma(double a, double x) {
  if (a <= 0.0) throw std::invalid_argument("incomplete gamma: a <= 0");
  if (x < 0.0) throw std::invalid_argument("incomplete gamma: x < 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_cdf(double x, double k, double theta) {
  if (x <= 0.0) return 0.0;
  return reg_lower_incomplete_gamma(k, x / theta);
}

double expected_min_exponential(double mean, int n) {
  assert(n >= 1);
  return mean / static_cast<double>(n);
}

double expected_min_gamma(double k, double theta, int n) {
  assert(n >= 1);
  // E[min] = ∫0^inf S(x)^n dx with S = 1 - F.  The integrand decays at
  // least exponentially past the mean; integrate adaptively by trapezoid
  // until the tail contribution is negligible.
  const double mean = k * theta;
  const double step = mean / 2048.0;
  double total = 0.0;
  double prev = 1.0;  // S(0)^n
  double x = 0.0;
  for (int i = 0; i < 2'000'000; ++i) {
    x += step;
    const double s = 1.0 - gamma_cdf(x, k, theta);
    const double cur = std::pow(s, n);
    total += 0.5 * (prev + cur) * step;
    prev = cur;
    if (cur < 1e-12 && x > mean / std::max(1, n)) break;
  }
  return total;
}

double expected_min_gamma_mc(double k, double theta, int n, int trials,
                             Rng& rng) {
  // Gamma(k, theta) with integer-ish k as a sum of exponentials; for
  // non-integer k, interpolate by mixing (adequate for cross-checks where
  // k is the integer loss-history depth).
  const int ki = static_cast<int>(k);
  // rng.exponential(theta) draws, from the engine taken once.
  Mt19937_64& gen = rng.engine();
  std::exponential_distribution<double> exponential{1.0 / theta};
  double acc = 0.0;
  for (int t = 0; t < trials; ++t) {
    double mn = 1e308;
    for (int i = 0; i < n; ++i) {
      double g = 0.0;
      for (int j = 0; j < ki; ++j) g += exponential(gen);
      mn = std::min(mn, g);
    }
    acc += mn;
  }
  return acc / static_cast<double>(trials);
}

}  // namespace tfmcc::order_stats
