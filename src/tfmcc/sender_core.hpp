#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "net/headers.hpp"
#include "tfmcc/config.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

// Fixed sender constants (§2.2, §2.5, §2.6, Appendix C).

/// c in T >= (c+1) * s / rate: the low-rate extension of §2.5.3 keeps the
/// suppression signal ahead of the feedback deadline at low rates.
constexpr int kLowRateGuard = 3;
/// d: the slowstart target is d times the lowest reported receive rate.
constexpr double kSlowstartMult = 2.0;
/// Increase cap, in packets per RTT, while ramping to a new CLR's rate.
constexpr double kIncreaseLimitPkts = 1.0;
/// Never send faster than this times the CLR's receive rate (TFRC's cap).
constexpr double kRecvRateCapMult = 2.0;
/// A CLR silent for this many feedback delays is lost (§4.2).
constexpr double kClrTimeoutMult = 10.0;
/// Appendix C: how long the previous CLR is remembered ("a few RTTs").
constexpr SimTime kPreviousClrHold = SimTime::millis(1500);
/// Rate floor: half a packet per initial RTT.
constexpr double kMinRateBps =
    static_cast<double>(kDataPacketBytes) / kInitialRtt.to_seconds() * 0.5;

/// What one SenderCore call decided: a set of the kinds below.
struct SenderDecision {
  enum Kind : unsigned {
    kClrSwitched = 1u << 0,         // another receiver became the CLR
    kClrSwitchedBack = 1u << 1,     // Appendix C: back to the previous CLR
    kClrRateUpdated = 1u << 2,      // the CLR's report set the rate (§2.2)
    kClrLost = 1u << 3,             // the CLR left or fell silent (§4.2)
    kSlowstartExited = 1u << 4,     // first loss report (§2.6)
    kSlowstartReentered = 1u << 5,  // CLR lost, nobody left with a rate
  };
  unsigned kinds{0};

  bool has(Kind k) const { return (kinds & k) != 0; }
};

/// The sender rules of §2.2–§2.6 over plain state: CLR selection with the
/// Appendix C previous-CLR memory, the rate update, the echo-slot priority
/// queue (§2.4.2), the round's suppression minimum (§2.5.2), slowstart
/// (§2.6), and the round length T with the CLR timeout.  No clock, timers,
/// packets or RNG: TfmccSender passes the time, runs the send and round
/// timers, and puts next_data()'s header on the wire.
class SenderCore {
 public:
  explicit SenderCore(const TfmccConfig& cfg);

  /// Round tick at `now`: commit the slowstart target from last round's
  /// receive rates, open the next round, size T, and drop a silent CLR.
  SenderDecision on_round(SimTime now);

  /// The header of the data packet sent at `now`: the slowstart ramp is
  /// applied first and the echo slot is taken from the queue.
  TfmccDataHeader next_data(SimTime now);

  /// Gap from the packet just sent to the next one.
  SimTime send_interval() const {
    return SimTime::seconds(static_cast<double>(kDataPacketBytes) /
                            std::max(rate_, kMinRateBps));
  }

  /// A receiver report (or leave) arriving at `now`.
  SenderDecision on_feedback(SimTime now, const TfmccFeedbackHeader& f);

  double rate_Bps() const { return rate_; }
  bool in_slowstart() const { return slowstart_; }
  std::int32_t clr() const { return clr_; }
  /// The CLR's last calculated rate; the sending rate may sit above it at
  /// the floor or below it while ramping.
  double clr_rate_Bps() const { return clr_rate_; }
  std::int32_t round() const { return round_; }
  SimTime round_duration() const { return round_T_; }
  std::int64_t data_sent() const { return seqno_; }
  std::int64_t feedback_received() const { return feedback_received_; }
  int known_receivers() const { return static_cast<int>(receivers_.size()); }
  int known_receivers_with_rtt() const;
  double peak_slowstart_rate_Bps() const { return peak_ss_rate_; }
  SimTime slowstart_exit_time() const { return ss_exit_time_; }
  const std::vector<std::pair<SimTime, std::int32_t>>& clr_history() const {
    return clr_history_;
  }

 private:
  struct ReceiverInfo {
    double rate_Bps{-1.0};  // RTT-adjusted calculated rate; < 0: no estimate
    double recv_rate_Bps{0.0};
    bool has_rtt{false};
    SimTime rtt{};
    SimTime last_fb_ts{};       // receiver timestamp (echo source)
    SimTime last_fb_arrival{};  // our arrival time (echo hold computation)
  };

  struct PendingEcho {
    int priority{3};  // 0: new CLR, 1: no RTT yet, 2: non-CLR, 3: CLR
    double rate_Bps{0.0};
    std::int32_t receiver{kInvalidReceiver};
    SimTime ts{};
    SimTime fb_arrival{};
  };

  SenderDecision on_leave(SimTime now, std::int32_t id);
  void queue_echo(const PendingEcho& pe);
  void note_round_min(const TfmccFeedbackHeader& f, double eff);
  void set_clr(SimTime now, std::int32_t id, double rate, bool ramp);
  /// set_clr without a ramp, dropping the rate to `eff` at once.
  void take_clr(SimTime now, std::int32_t id, double eff);
  SenderDecision clr_lost(SimTime now);
  SenderDecision apply_clr_report(SimTime now, const ReceiverInfo& info,
                                  double eff, std::int32_t from);
  SimTime max_rtt_estimate() const;
  TfmccEcho pick_echo(SimTime now);

  const EquationBackend* equation_;
  bool remember_previous_clr_;

  double rate_;  // bytes/second
  std::int64_t seqno_{0};
  std::int64_t feedback_received_{0};

  // Slowstart (§2.6).
  bool slowstart_{true};
  double ss_target_{-1.0};       // committed target rate for this round
  double ss_base_{0.0};          // rate when the target was committed
  SimTime ss_commit_{};
  double round_min_recv_{-1.0};  // min receive rate reported this round
  double peak_ss_rate_{0.0};
  SimTime ss_exit_time_{SimTime::infinity()};

  // CLR state (§2.2).
  std::int32_t clr_{kInvalidReceiver};
  double clr_rate_{0.0};
  SimTime clr_rtt_{};
  SimTime clr_last_fb_{};
  bool ramp_{false};  // increase limited to 1 pkt/RTT after CLR change
  std::vector<std::pair<SimTime, std::int32_t>> clr_history_;

  // Appendix C: previous-CLR memory.
  std::int32_t prev_clr_{kInvalidReceiver};
  double prev_clr_rate_{0.0};
  SimTime prev_clr_since_{};

  // Feedback round state (§2.5).
  std::int32_t round_{0};
  SimTime round_T_{};
  double round_min_rate_{-1.0};  // suppression echo value
  bool round_min_has_loss_{false};

  // Id-ordered: clr_lost()'s lowest-rate pick breaks ties by lowest id.
  std::map<std::int32_t, ReceiverInfo> receivers_;
  std::vector<PendingEcho> echo_queue_;
  static constexpr std::size_t kMaxEchoQueue = 64;
};

}  // namespace tfmcc
