#include "tfrc/equation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tfmcc::tcp_model {

double throughput_Bps(double packet_bytes, SimTime rtt, double p, double b) {
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  return throughput_Bps(packet_bytes, rtt.to_seconds(),
                        loss_factors(std::min(p, 1.0), b));
}

LossFactors loss_factors(double p, double b) {
  return {p, std::sqrt(2.0 * b * p / 3.0),
          std::min(1.0, 3.0 * std::sqrt(3.0 * b * p / 8.0)),
          1.0 + 32.0 * p * p};
}

double loss_for_throughput(double packet_bytes, SimTime rtt, double rate_Bps,
                           double b) {
  if (rate_Bps <= 0.0) return 1.0;
  if (rate_Bps >= throughput_Bps(packet_bytes, rtt, kMinLossRate, b)) {
    return kMinLossRate;
  }
  // throughput is strictly decreasing in p: bisection.
  double lo = kMinLossRate, hi = 1.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (throughput_Bps(packet_bytes, rtt, mid, b) > rate_Bps) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double simple_throughput_Bps(double packet_bytes, SimTime rtt, double p) {
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  return packet_bytes * kMathisConstant / (rtt.to_seconds() * std::sqrt(p));
}

double simple_loss_for_throughput(double packet_bytes, SimTime rtt,
                                  double rate_Bps) {
  if (rate_Bps <= 0.0) return 1.0;
  const double root = packet_bytes * kMathisConstant /
                      (rtt.to_seconds() * rate_Bps);
  return std::clamp(root * root, kMinLossRate, 1.0);
}

double loss_events_per_rtt(double p, double b) {
  // L = p * (X * R / s); X*R/s is the rate in packets per RTT, so the s and
  // R dependencies cancel and any values may be used.
  constexpr double s = 1000.0;
  const SimTime r = SimTime::millis(100);
  const double pkts_per_rtt = throughput_Bps(s, r, p, b) * r.to_seconds() / s;
  return p * pkts_per_rtt;
}

}  // namespace tfmcc::tcp_model
