#pragma once

// PGMCC (Rizzo, SIGCOMM 2000) — the single-rate multicast congestion
// control scheme the paper compares TFMCC against (§5).
//
// PGMCC elects the receiver with the worst network conditions as the group
// representative ("acker") using a simplified TCP throughput model,
// T ~ 1/(rtt*sqrt(p)), then runs a TCP-style window loop between sender and
// acker: the acker ACKs every data packet, the window opens by 1/W per ACK
// and halves on loss, producing TCP's sawtooth — the smoothness contrast
// with TFMCC that motivates the comparison bench.
//
// Simplifications against Rizzo's PGMCC, and why:
//  * receiver reports (NAK-equivalents) carry a TFRC-style smoothed loss
//    estimate and a timestamp echo; suppression reuses the biased
//    exponential timers (Rizzo notes PGMCC "might benefit from using a
//    feedback mechanism similar to that of TFMCC");
//  * congestion control is separated from reliability: data delivery is
//    unreliable, exactly as PGMCC permits.

#include <cstdint>
#include <map>

#include "mcast/session.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/config.hpp"
#include "tfrc/loss_history.hpp"
#include "tfrc/seqno_tracker.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tfmcc {

/// PGMCC sender: window-based rate control clocked by the acker's ACKs.
class PgmccSender final : public Agent {
 public:
  PgmccSender(Simulator& sim, MulticastSession& session);
  ~PgmccSender() override;

  void start(SimTime at);
  void stop();

  void handle_packet(const Packet& p) override;

  std::int32_t acker() const { return acker_; }
  std::int64_t data_sent() const { return seqno_; }
  std::int64_t window_halvings() const { return halvings_; }

 private:
  struct ReceiverInfo {
    double loss_rate{0.0};
    SimTime rtt{};
    bool has_rtt{false};
  };

  void send_packets();
  void transmit();
  void on_report(const TfmccFeedbackHeader& f);
  /// Simplified TCP model throughput used for acker election.
  double modelled_rate(const ReceiverInfo& info) const;
  void maybe_switch_acker(std::int32_t candidate);
  void on_rto();
  void restart_rto();

  Simulator& sim_;
  MulticastSession& session_;

  bool running_{false};
  std::int64_t seqno_{0};
  double window_;
  double tokens_;        // ACK-clocked send credits (Rizzo's token scheme)
  std::int64_t highest_acked_{-1};
  std::int64_t recover_{-1};  // ignore further losses up to this seqno
  SimTime acker_rtt_{};
  bool have_acker_rtt_{false};

  std::int32_t acker_{kInvalidReceiver};
  std::map<std::int32_t, ReceiverInfo> receivers_;

  EventId rto_timer_{};
  EventId send_timer_{};
  std::int64_t halvings_{0};
};

/// PGMCC receiver: tracks loss + echoes timestamps; ACKs every packet when
/// elected acker, sends suppressed loss reports otherwise.
class PgmccReceiver final : public Agent {
 public:
  PgmccReceiver(Simulator& sim, MulticastSession& session, NodeId self,
                std::int32_t receiver_id, Rng rng);
  ~PgmccReceiver() override;

  void join();
  void leave();

  void handle_packet(const Packet& p) override;

  std::int32_t id() const { return id_; }
  bool is_acker() const { return is_acker_; }
  double loss_event_rate() const { return loss_.loss_event_rate(); }
  std::int64_t packets_received() const { return seq_.received(); }
  std::int64_t acks_sent() const { return acks_sent_; }
  /// Bytes of every delivered (non-duplicate) data packet, in 1 s bins.
  const ThroughputBinner& goodput() const { return goodput_; }

 private:
  void send_ack(const TfmccDataHeader& h);
  void send_report(SimTime now);
  void schedule_report();

  Simulator& sim_;
  MulticastSession& session_;
  NodeId self_;
  std::int32_t id_;
  Rng rng_;

  bool joined_{false};
  bool is_acker_{false};
  SeqnoTracker seq_;
  LossHistory loss_;
  SimTime last_data_send_ts_{};
  SimTime last_data_arrival_{SimTime::infinity()};
  EventId report_timer_{};
  std::int64_t acks_sent_{0};
  ThroughputBinner goodput_{SimTime::seconds(1.0)};
};

}  // namespace tfmcc
