#pragma once

#include <cstdint>

#include "net/headers.hpp"
#include "tfrc/equation_backend.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

/// How feedback timers are biased in favour of low-rate receivers (§2.5.1).
enum class BiasMethod {
  kUnbiased,        // plain exponential timers, Eq. (2)
  kOffset,          // subtract an offset proportional to x, Eq. (3)
  kModifiedOffset,  // Eq. (3) with x truncated to [0.5, 0.9] and renormalised
  kModifiedN,       // reduce the receiver-set upper bound N with x
};

/// Parameters of the randomized feedback-timer mechanism.
struct FeedbackTimerConfig {
  double n_estimate{10000.0};  // N: upper bound on the receiver-set size
  double zeta{0.25};           // ζ: fraction of T used as the bias offset
  BiasMethod method{BiasMethod::kModifiedOffset};
};

/// Fixed protocol constants shared by the sender and both receiver tiers.
/// The sender-only ones live next to their rules in sender_core.hpp.
///
/// Initial RTT before any measurement (§2.4): one packet per initial RTT
/// is the starting rate, and unmeasured receivers compute with it.
constexpr SimTime kInitialRtt = SimTime::millis(500);
/// RTT EWMA weights (§2.4.2): the CLR measures once per RTT, so its samples
/// are smoothed hard; other receivers measure rarely and take most of each.
constexpr double kRttEwmaClr = 0.05;
constexpr double kRttEwmaNonClr = 0.5;
/// Feedback round length T in multiples of the largest RTT (§2.5).
constexpr double kRoundRttMult = 4.0;

/// The TFMCC parameters a scenario, ablation or test moves; everything else
/// is one of the fixed constants above or in sender_core.hpp.
struct TfmccConfig {
  // RTT measurement (§2.4).
  double rtt_ewma_owd{0.1};        // EWMA weight for one-way-delay adjustments
  bool use_clock_sync{false};      // NTP/GPS-style initialisation (§2.4.1)
  SimTime clock_sync_error{SimTime::millis(30)};  // worst-case sync error

  // Loss measurement (§2.3).
  int loss_history_depth{8};

  // Feedback suppression (§2.5).
  FeedbackTimerConfig timer{};
  double delta{0.1};           // δ: cancellation threshold (§2.5.2)

  // Control-equation evaluation (receivers' calc rate, Appendix B inversion,
  // the sender's initial-RTT recomputation).  Always the float Padhye
  // evaluation; a pointer so a traced run can set a timing decorator.
  const EquationBackend* equation{&float_equation_backend()};

  // Appendix C option: remember the previous CLR for quick switch-back.
  bool remember_previous_clr{false};
};

/// Port conventions used by the TFMCC experiment harnesses.
constexpr PortId kTfmccSenderPort = 1;
constexpr PortId kTfmccDataPort = 2;

}  // namespace tfmcc
