#pragma once

#include <cstdint>
#include <variant>

#include "util/sim_time.hpp"

namespace tfmcc {

using NodeId = std::int32_t;
using PortId = std::int32_t;
using GroupId = std::int32_t;
using FlowId = std::int32_t;

constexpr NodeId kInvalidNode = -1;
constexpr GroupId kNoGroup = -1;
constexpr std::int32_t kInvalidReceiver = -1;

/// Conventional sizes (bytes) used across the experiments: 1000-byte data
/// packets as in the paper's ns-2 setup, 40-byte TCP ACKs, and a small
/// report packet for TFMCC feedback.
constexpr std::int32_t kDataPacketBytes = 1000;
constexpr std::int32_t kAckPacketBytes = 40;
constexpr std::int32_t kFeedbackPacketBytes = 60;

/// TCP segment/ACK header (the fields our Reno model needs).
struct TcpHeader {
  FlowId flow{0};
  std::int64_t seqno{0};      // data: first packet index of this segment
  std::int64_t ackno{0};      // ack: next expected packet index (cumulative)
  bool is_ack{false};
  SimTime ts{};               // sender timestamp (RTTM)
  SimTime ts_echo{};          // echoed timestamp
};

/// Echo slot carried in every TFMCC data packet: the sender bounces one
/// receiver's feedback timestamp so that receiver can measure its RTT
/// (paper §2.4.2).  `delay` is the interval the timestamp was held at the
/// sender between feedback receipt and echo transmission.
struct TfmccEcho {
  std::int32_t receiver{kInvalidReceiver};
  SimTime ts{};
  SimTime delay{};
  bool valid() const { return receiver != kInvalidReceiver; }
};

/// Header of a TFMCC data packet (multicast, sender -> all receivers).
struct TfmccDataHeader {
  std::int64_t seqno{0};
  SimTime send_ts{};            // sender clock at transmission (§2.4.3)
  double send_rate_Bps{0.0};    // current transmission rate
  std::int32_t clr{kInvalidReceiver};  // current limiting receiver id
  bool slowstart{false};

  // Feedback-round state (§2.5): receivers start their suppression timers
  // when `round` changes; `fb_deadline` is this round's maximum feedback
  // delay T; `supp_rate` echoes the lowest rate reported so far this round
  // (the suppression signal), with `supp_has_loss` qualifying it during
  // slowstart (a no-loss report cannot suppress a loss report, §2.6).
  std::int32_t round{0};
  SimTime fb_deadline{};
  double supp_rate_Bps{-1.0};  // < 0: no feedback received yet this round
  bool supp_has_loss{false};

  TfmccEcho echo{};
};

/// Header of a TFMCC receiver report (unicast, receiver -> sender).
struct TfmccFeedbackHeader {
  std::int32_t receiver{kInvalidReceiver};
  std::int32_t round{0};
  double calc_rate_Bps{0.0};   // X_calc from the control equation
  double recv_rate_Bps{0.0};   // measured receive rate (slowstart, caps)
  double loss_event_rate{0.0}; // p fed into the equation
  bool has_rtt{false};         // true once a real RTT measurement exists
  SimTime rtt{};               // RTT used in the calculation
  bool has_loss{false};        // receiver has seen at least one loss event
  bool leaving{false};         // explicit leave notification
  SimTime ts{};                // receiver clock at feedback send (for echo)
  SimTime echo_ts{};           // send_ts of last data packet (sender-side RTT)
  SimTime echo_delay{};        // hold time between data receipt and this send
};

/// PGMCC acker ACK (one per data packet received by the group
/// representative; drives the sender's TCP-like window).
struct PgmccAckHeader {
  std::int32_t receiver{kInvalidReceiver};
  std::int64_t seqno{0};       // data packet being acknowledged
  SimTime ts_echo{};           // data packet's send timestamp
  SimTime echo_delay{};        // hold time at the receiver
  double loss_rate{0.0};       // acker's smoothed loss estimate
};

using PacketHeader =
    std::variant<std::monostate, TcpHeader, TfmccDataHeader,
                 TfmccFeedbackHeader, PgmccAckHeader>;

}  // namespace tfmcc
