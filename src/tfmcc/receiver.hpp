#pragma once

#include <cstdint>
#include <functional>

#include "mcast/session.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/config.hpp"
#include "tfmcc/receiver_core.hpp"
#include "util/rng.hpp"

namespace tfmcc {

/// A TFMCC receiver (§2): measures its loss event rate and RTT, computes the
/// TCP-friendly rate from the control equation, and participates in the
/// biased feedback-suppression protocol.  Attach one per member node.
/// The §2.3–§2.6 rules live in ReceiverCore; this agent adds the timers,
/// the RTT estimate with its §2.4.3 adjustment, and the packet IO.
class TfmccReceiver final : public Agent {
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

  /// Invoked once per delivered data packet: (time, bytes) — goodput hook.
  void set_delivery_observer(std::function<void(SimTime, std::int32_t)> f) {
    observer_ = std::move(f);
  }

  /// Invoked once per delivered data packet with the full header — for
  /// applications layered on the stream (e.g. the file-carousel example).
  void set_data_observer(
      std::function<void(SimTime, const TfmccDataHeader&)> f) {
    data_observer_ = std::move(f);
  }

  // --- state inspection (tests / experiment harnesses) ---------------------
  std::int32_t id() const { return id_; }
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

  Simulator& sim_;
  MulticastSession& session_;
  NodeId self_;
  std::int32_t id_;
  TfmccConfig cfg_;
  Rng rng_;

  bool joined_{false};
  bool ever_left_{false};  // a later join() is a rejoin and resets state

  // Loss measurement, echo snapshot and round (§2.3, §2.5).
  ReceiverCore core_;

  // RTT state (§2.4).
  SimTime rtt_;
  SimTime owd_rs_{};       // receiver->sender one-way delay (incl. skew)
  bool has_owd_{false};

  // Feedback-round timers (§2.5).
  EventId fb_timer_{};
  bool is_clr_{false};
  EventId clr_timer_{};

  std::function<void(SimTime, std::int32_t)> observer_;
  std::function<void(SimTime, const TfmccDataHeader&)> data_observer_;
  std::int64_t feedback_sent_{0};
};

}  // namespace tfmcc
