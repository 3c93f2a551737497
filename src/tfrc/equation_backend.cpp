#include "tfrc/equation_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tfrc/equation.hpp"

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

}  // namespace

const EquationBackend& float_equation_backend() {
  static const FloatEquationBackend backend;
  return backend;
}

}  // namespace tfmcc
