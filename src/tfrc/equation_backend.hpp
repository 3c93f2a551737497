#pragma once

#include <cstddef>
#include <string_view>

#include "util/sim_time.hpp"

namespace tfmcc {

/// The seam through which receivers, senders and the modeled receiver tier
/// evaluate the TCP throughput equation — the one computation TFMCC performs
/// per receiver per feedback round.
///
/// float_equation_backend() is the one implementation: the double-precision
/// Padhye evaluation of tcp_model::*, which the paper's figures and every
/// golden output use.  It is an interface so a caller can wrap it: the
/// benchmark's traced runs set a timing decorator as TfmccConfig::equation.
class EquationBackend {
 public:
  virtual ~EquationBackend() = default;

  /// Name of the evaluation ("float").
  virtual std::string_view name() const = 0;

  /// Expected TCP throughput in bytes/second at loss event rate `p`;
  /// +infinity when p <= 0 (no loss measured yet).
  virtual double throughput_Bps(double packet_bytes, SimTime rtt,
                                double p) const = 0;

  /// Loss event rate that yields `rate_Bps` (inverse direction, used for
  /// Appendix B loss-history initialisation).
  virtual double loss_for_throughput(double packet_bytes, SimTime rtt,
                                     double rate_Bps) const = 0;

  /// Batched SoA evaluation:
  /// out[i] = throughput_Bps(packet_bytes, rtts[i], ps[i]), bit for bit.
  /// The float backend computes the p-only factors once per run of equal p.
  /// The simulator no longer calls it (the modeled block evaluates rates
  /// only for its few contending draws); the benchmark's timing decorator
  /// still overrides it.
  virtual void throughput_batch(double packet_bytes, const SimTime* rtts,
                                const double* ps, double* out_Bps,
                                std::size_t n) const = 0;
};

/// The process-wide backend instance (stateless, shareable across threads).
const EquationBackend& float_equation_backend();

}  // namespace tfmcc
