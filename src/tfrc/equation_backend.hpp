#pragma once

#include <cstddef>
#include <string_view>

#include "util/sim_time.hpp"

namespace tfmcc {

/// Pluggable evaluation strategy for the TCP throughput equation — the one
/// computation TFMCC performs per receiver per feedback round, and therefore
/// the kernel the batched-receiver scaling work hinges on.
///
/// Two implementations ship:
///   * "float": double-precision Padhye evaluation (tcp_model::*) — the
///     reference the paper's figures were produced with; the default, so all
///     golden scenario outputs stay byte-identical.
///   * "fixed": scaled-integer table-driven evaluation (fixedpoint::*, the
///     Linux DCCP/TFRC idiom) — division-light, branch-predictable, and
///     batchable; agrees with "float" to within table quantisation (see the
///     ablation_fixedpoint scenario for the measured fidelity envelope).
///
/// Scenarios select a backend with `--set equation_backend=float|fixed`; the
/// choice is carried on TfmccConfig / scaling::ModelConfig into every
/// receiver, sender and analytic model of the run.
class EquationBackend {
 public:
  virtual ~EquationBackend() = default;

  /// Registry name ("float" / "fixed"), as accepted by the scenario knob.
  virtual std::string_view name() const = 0;

  /// Expected TCP throughput in bytes/second at loss event rate `p`;
  /// +infinity when p <= 0 (no loss measured yet).
  virtual double throughput_Bps(double packet_bytes, SimTime rtt,
                                double p) const = 0;

  /// Loss event rate that yields `rate_Bps` (inverse direction, used for
  /// Appendix B loss-history initialisation).
  virtual double loss_for_throughput(double packet_bytes, SimTime rtt,
                                     double rate_Bps) const = 0;

  /// Batched SoA evaluation over a receiver block:
  /// out[i] = throughput_Bps(packet_bytes, rtts[i], ps[i]), bit for bit.
  /// Backends hoist per-batch work: the float backend computes the p-only
  /// factors once per run of equal p, the fixed backend converts units once
  /// and runs an integer-only inner loop.
  virtual void throughput_batch(double packet_bytes, const SimTime* rtts,
                                const double* ps, double* out_Bps,
                                std::size_t n) const = 0;
};

/// The process-wide backend instances (stateless, shareable across threads).
const EquationBackend& float_equation_backend();
const EquationBackend& fixed_equation_backend();

/// Backend registered under `name`, or nullptr when unknown.
const EquationBackend* find_equation_backend(std::string_view name);

}  // namespace tfmcc
