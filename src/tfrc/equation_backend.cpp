#include "tfrc/equation_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tfrc/equation.hpp"
#include "tfrc/equation_fixed.hpp"

namespace tfmcc {

namespace {

class FloatEquationBackend final : public EquationBackend {
 public:
  std::string_view name() const override { return "float"; }

  double throughput_Bps(double packet_bytes, SimTime rtt,
                        double p) const override {
    return tcp_model::throughput_Bps(packet_bytes, rtt, p);
  }

  double loss_for_throughput(double packet_bytes, SimTime rtt,
                             double rate_Bps) const override {
    return tcp_model::loss_for_throughput(packet_bytes, rtt, rate_Bps);
  }

  void throughput_batch(double packet_bytes, const SimTime* rtts,
                        const double* ps, double* out_Bps,
                        std::size_t n) const override {
    // A modeled block shares one p across the batch: the square roots and
    // the p-polynomial are recomputed only when p changes.
    double last_p = std::numeric_limits<double>::quiet_NaN();
    tcp_model::LossFactors f{};
    for (std::size_t i = 0; i < n; ++i) {
      if (ps[i] <= 0.0) {
        out_Bps[i] = std::numeric_limits<double>::infinity();
        continue;
      }
      if (!(ps[i] == last_p)) {
        last_p = ps[i];
        f = tcp_model::loss_factors(std::min(ps[i], 1.0));
      }
      out_Bps[i] =
          tcp_model::throughput_Bps(packet_bytes, rtts[i].to_seconds(), f);
    }
  }
};

/// Unit conversions at the double/integer boundary.  Saturating, so extreme
/// inputs degrade to the table's clamp contract instead of overflowing.
std::uint32_t to_packet_bytes(double packet_bytes) {
  const double b = std::clamp(packet_bytes, 1.0, 1e6);
  return static_cast<std::uint32_t>(std::lround(b));
}

std::uint32_t to_rtt_us(SimTime rtt) {
  const std::int64_t us = rtt.count_nanos() / 1000;
  if (us <= 0) return 1;
  return static_cast<std::uint32_t>(
      std::min<std::int64_t>(us, std::numeric_limits<std::uint32_t>::max()));
}

std::uint32_t to_p_scaled(double p) {
  const double scaled = p * fixedpoint::kPScale;
  if (scaled >= fixedpoint::kPScale) return fixedpoint::kPScale;
  if (scaled <= 1.0) return 1;  // lookup_f saturates at kSmallestP
  // Positive and bounded here, so +0.5-and-truncate rounds like lround
  // without the libm call in the batch hot loop.
  return static_cast<std::uint32_t>(scaled + 0.5);
}

class FixedEquationBackend final : public EquationBackend {
 public:
  std::string_view name() const override { return "fixed"; }

  double throughput_Bps(double packet_bytes, SimTime rtt,
                        double p) const override {
    if (p <= 0.0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(fixedpoint::calc_x(
        to_packet_bytes(packet_bytes), to_rtt_us(rtt), to_p_scaled(p)));
  }

  double loss_for_throughput(double packet_bytes, SimTime rtt,
                             double rate_Bps) const override {
    if (rate_Bps <= 0.0) return 1.0;
    const double capped = std::min(rate_Bps, 1e15);
    const std::uint32_t p_scaled = fixedpoint::loss_for_rate(
        to_packet_bytes(packet_bytes), to_rtt_us(rtt),
        static_cast<std::uint64_t>(capped));
    return static_cast<double>(p_scaled) / fixedpoint::kPScale;
  }

  void throughput_batch(double packet_bytes, const SimTime* rtts,
                        const double* ps, double* out_Bps,
                        std::size_t n) const override {
    // Hoist the shared numerator; the inner loop is integer-only (one
    // 64-bit division per receiver) plus the boundary conversions.
    const std::uint64_t num =
        static_cast<std::uint64_t>(to_packet_bytes(packet_bytes)) *
        (static_cast<std::uint64_t>(1'000'000) * fixedpoint::kFScale);
    for (std::size_t i = 0; i < n; ++i) {
      if (ps[i] <= 0.0) {
        out_Bps[i] = std::numeric_limits<double>::infinity();
        continue;
      }
      const std::uint64_t f = fixedpoint::lookup_f(to_p_scaled(ps[i]));
      const std::uint64_t r = to_rtt_us(rtts[i]);
      out_Bps[i] = static_cast<double>(num / (r * f));
    }
  }
};

}  // namespace

const EquationBackend& float_equation_backend() {
  static const FloatEquationBackend backend;
  return backend;
}

const EquationBackend& fixed_equation_backend() {
  static const FixedEquationBackend backend;
  return backend;
}

const EquationBackend* find_equation_backend(std::string_view name) {
  if (name == "float") return &float_equation_backend();
  if (name == "fixed") return &fixed_equation_backend();
  return nullptr;
}

}  // namespace tfmcc
