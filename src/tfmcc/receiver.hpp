#pragma once

#include <cstdint>
#include <functional>

#include "mcast/session.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/config.hpp"
#include "tfmcc/receiver_core.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tfmcc {

/// A TFMCC receiver (§2): measures its loss event rate and RTT, computes the
/// TCP-friendly rate from the control equation, and participates in the
/// biased feedback-suppression protocol.  Attach one per member node.
/// The §2.3–§2.6 rules live in ReceiverCore; this agent adds the timers,
/// the RTT estimate with its §2.4.3 adjustment, and the packet IO.
///
/// Line-aligned, with every field a data packet reads ahead of the meter's
/// ring: a delivered copy touches six of the receiver's first seven lines
/// (the echo, OWD and suppression rules' fields, the config, the goodput
/// bin, the core's per-packet prefix and the meter's cursors) and the two
/// ring slots it writes and evicts.
class alignas(64) TfmccReceiver final : public Agent {
 public:
  TfmccReceiver(Simulator& sim, MulticastSession& session, NodeId self,
                std::int32_t receiver_id, TfmccConfig cfg, Rng rng);
  ~TfmccReceiver() override;

  TfmccReceiver(const TfmccReceiver&) = delete;
  TfmccReceiver& operator=(const TfmccReceiver&) = delete;

  /// Join the multicast session (graft onto the tree, start listening).
  void join();
  /// Leave: sends an explicit leave report (§4.2), prunes, stops listening.
  void leave();

  void handle_packet(const Packet& p) override;

  /// Invoked once per delivered data packet with the full header — for
  /// applications layered on the stream (e.g. app_file_sync's carousel).
  void set_data_observer(
      std::function<void(SimTime, const TfmccDataHeader&)> f) {
    data_observer_ = std::move(f);
    observed_ = static_cast<bool>(data_observer_);
  }

  // --- state inspection (tests / experiment harnesses) ---------------------
  std::int32_t id() const { return id_; }
  /// Bytes of every delivered (non-duplicate) data packet, in 1 s bins by
  /// arrival time; kept across rejoins.
  const ThroughputBinner& goodput() const { return goodput_; }
  bool joined() const { return joined_; }
  bool has_rtt_measurement() const { return core_.rtt_measured; }
  SimTime rtt() const { return rtt_; }
  double loss_event_rate() const { return core_.loss.loss_event_rate(); }
  bool has_loss() const { return core_.loss.has_loss(); }
  /// Rate from the control equation with current p and RTT; +inf before the
  /// first loss event.
  double calc_rate_Bps() const { return core_.calc_rate_Bps(rtt_, cfg_); }
  double recv_rate_Bps() const { return core_.recv_rate.rate_Bps(sim_.now()); }
  bool is_clr() const { return is_clr_; }
  std::int64_t feedback_sent() const { return feedback_sent_; }
  std::int64_t packets_received() const { return core_.seq.received(); }
  std::int64_t packets_lost() const { return core_.seq.lost(); }

 private:
  void process_echo(const TfmccDataHeader& h, SimTime now);
  void process_one_way_delay(const TfmccDataHeader& h, SimTime now);
  void on_new_round(const TfmccDataHeader& h, SimTime now);
  void update_clr_status(const TfmccDataHeader& h);
  void send_feedback();
  void schedule_clr_feedback();

  // Per-packet state first, in the order the static_assert below budgets.
  Simulator& sim_;
  std::int32_t id_;
  bool joined_{false};
  bool is_clr_{false};
  bool has_owd_{false};
  // data_observer_ is set: the per-packet test reads this line, not the
  // std::function's.
  bool observed_{false};
  // RTT state (§2.4).
  SimTime rtt_;
  SimTime owd_rs_{};  // receiver->sender one-way delay (incl. skew)
  // Feedback-round timer (§2.5).
  EventId fb_timer_{};
  TfmccConfig cfg_;
  ThroughputBinner goodput_{SimTime::seconds(1.0)};
  // Loss measurement, echo snapshot and round (§2.3, §2.5).
  ReceiverCore core_;

  std::function<void(SimTime, const TfmccDataHeader&)> data_observer_;
  MulticastSession& session_;
  NodeId self_;
  bool ever_left_{false};  // a later join() is a rejoin and resets state
  EventId clr_timer_{};
  std::int64_t feedback_sent_{0};
  Rng rng_;
};

// The receiver's own per-packet fields take 56 bytes after the vtable
// pointer, then come the config (its EWMA weight in line 0, delta and the
// equation in line 1), the goodput bin's 32 hot bytes (line 2) and the
// core's 80-byte per-packet prefix (lines 3-4); the meter's 8 bytes of
// cursors follow the loss history, whose weights are a pointer to a table
// shared per depth, at the start of line 6, and its 64 arrival times run on
// from there, a new line every 8 packets.  A field added to any of these
// moves them.
static_assert(sizeof(TfmccConfig) == 80 && sizeof(ThroughputBinner) == 72 &&
                  sizeof(ReceiverCore) == 696,
              "the receiver's per-packet fields left their lines");

}  // namespace tfmcc
