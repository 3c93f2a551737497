#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "net/headers.hpp"
#include "tfmcc/config.hpp"
#include "tfrc/loss_history.hpp"
#include "tfrc/seqno_tracker.hpp"
#include "util/stats.hpp"

namespace tfmcc {

/// Bias ratio x for the feedback timer (§2.5.1, §2.6): own rate over the
/// sending rate, clamped to [0, 1]; 1 without either.
inline double bias_ratio(double rate_Bps, double send_rate_Bps) {
  if (send_rate_Bps <= 0.0 || !std::isfinite(rate_Bps)) return 1.0;
  return std::clamp(rate_Bps / send_rate_Bps, 0.0, 1.0);
}

/// §2.5.2: the echoed rate r cancels a pending report with rate `own` when
/// r - own <= delta * r, i.e. the report would not improve on r by > delta.
inline bool delta_cancels(double echoed, double own, double delta) {
  return echoed - own <= delta * echoed;
}

/// The suppression signal the sender echoes in a round's data headers.
struct SuppressionEcho {
  double rate_Bps{-1.0};  // lowest rate reported this round; < 0: none yet
  bool has_loss{false};   // that report came from a receiver with loss
  bool slowstart{false};

  static SuppressionEcho of(const TfmccDataHeader& h) {
    return {h.supp_rate_Bps, h.supp_has_loss, h.slowstart};
  }
  /// Fold in a later header of the same round.
  void observe(const TfmccDataHeader& h) {
    slowstart = h.slowstart;
    if (h.supp_rate_Bps >= 0.0) *this = of(h);
  }
};

/// The receiver rules of §2.3–§2.6 over plain state, shared by the full
/// receiver (TfmccReceiver) and the modeled tier (ModeledReceiverBlock, one
/// core per tap).  No clock, timers, packets or RNG: callers pass the time
/// and the RTT a rule should use, and send or schedule what it decides.
/// RTT estimation stays with the callers, because that is where the tiers
/// differ: the full receiver's §2.4.3 one-way-delay adjustment, the block's
/// per-receiver RTTs and virtual detours.
///
/// Tier equivalence (tests/property/test_tier_equivalence.cpp): a full
/// receiver and a one-receiver block without detour send identical reports
/// only when (a) rtt_ewma_owd is 0, as the block has no §2.4.3 adjustment,
/// and (b) the receiver's own rate is fixed over each round and the echoed
/// rate only falls within it, as the block applies §2.5.2 once at fire time
/// where the full receiver applies it to every packet.  A slowstart round
/// decided by the moving receive rate breaks (b).
struct ReceiverCore {
  explicit ReceiverCore(const TfmccConfig& cfg)
      : loss{cfg.loss_history_depth} {}

  // A data packet reads these fields and the per-packet prefixes of the
  // loss history and the meter, which keep theirs first; beyond them it
  // touches only the meter's ring slots.
  SeqnoTracker seq;
  SimTime last_data_send_ts{};  // echo snapshot of the latest data packet
  SimTime last_data_arrival{SimTime::infinity()};
  std::int32_t round{-1};
  bool rtt_measured{false};  // on_first_rtt() has run
  LossHistory loss;
  WindowedRateMeter recv_rate;

  /// §2.4.1 clock-sync initialisation from the first data packet, before
  /// any RTT measurement: 2 * (one-way delay + sync error bound).  Call
  /// before on_data().
  std::optional<SimTime> clock_sync_rtt(const TfmccDataHeader& h, SimTime now,
                                        const TfmccConfig& cfg) const {
    // The per-packet fields decide first; the config is read only until
    // the first packet.
    if (rtt_measured || seq.received() != 0 || !cfg.use_clock_sync) {
      return std::nullopt;
    }
    return (now - h.send_ts + cfg.clock_sync_error) * 2.0;
  }

  /// A data packet (always kDataPacketBytes) at `now`: duplicate and loss
  /// detection, loss events aggregated with `rtt` (§2.3), the Appendix B
  /// first interval, the receive rate and the echo snapshot.  False for a
  /// duplicate.
  bool on_data(const TfmccDataHeader& h, SimTime now, SimTime rtt,
               const TfmccConfig& cfg);

  /// The first RTT measurement replaces the estimate `prior`: re-aggregate
  /// the losses with `aggregate_rtt` (Appendix A) and rescale the synthetic
  /// first interval to `measured` (Appendix B).
  void on_first_rtt(SimTime aggregate_rtt, SimTime measured, SimTime prior) {
    rtt_measured = true;
    loss.reaggregate(aggregate_rtt);
    loss.rescale_initial_interval(measured, prior);
  }

  /// Control-equation rate with the current p and `rtt`; +inf before loss.
  double calc_rate_Bps(SimTime rtt, const TfmccConfig& cfg) const;

  /// The rate a receiver reports and biases its timer with: the receive
  /// rate in slowstart (§2.6), the calculated rate otherwise.
  double own_rate_Bps(bool slowstart, SimTime now, SimTime rtt,
                      const TfmccConfig& cfg) const {
    return slowstart ? recv_rate.rate_Bps(now) : calc_rate_Bps(rtt, cfg);
  }

  /// Whether a non-CLR receiver arms a feedback timer: in slowstart any
  /// receiver with a receive-rate estimate (§2.6), in steady state one whose
  /// calculated rate `own_Bps` is below the sending rate (§2.2; +inf never
  /// is).
  bool eligible(bool slowstart, double own_Bps, double send_rate_Bps) const {
    return slowstart ? recv_rate.has_estimate() : own_Bps < send_rate_Bps;
  }

  /// §2.5.2 with §2.6's loss-report dominance: in slowstart a report with
  /// loss is only cancelled by another loss report, and one without loss
  /// always yields to a loss report.
  bool suppressed(const SuppressionEcho& e, SimTime now, SimTime rtt,
                  const TfmccConfig& cfg) const;

  /// Receiver `id`'s report at `now`.  The echo hold shrinks by `detour`,
  /// the modeled tier's virtual path beyond the physical one, so the sender
  /// measures the whole path RTT.
  TfmccFeedbackHeader report(std::int32_t id, SimTime rtt, bool has_rtt,
                             SimTime now, SimTime detour,
                             const TfmccConfig& cfg) const;

  /// Explicit leave report (§4.2).
  TfmccFeedbackHeader leave_report(std::int32_t id, SimTime now) const {
    TfmccFeedbackHeader h;
    h.receiver = id;
    h.round = round;
    h.leaving = true;
    h.ts = now;
    return h;
  }
};

}  // namespace tfmcc
