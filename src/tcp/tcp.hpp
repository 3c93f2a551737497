#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace tfmcc {

/// Configuration for a TCP Reno bulk-transfer flow.
struct TcpConfig {
  std::int32_t packet_bytes{kDataPacketBytes};
  std::int32_t ack_bytes{kAckPacketBytes};
  double initial_cwnd{2.0};
  double initial_ssthresh{64.0};
  double max_cwnd{1e6};
  SimTime min_rto{SimTime::millis(200)};
  SimTime max_rto{SimTime::seconds(60.0)};
  /// NewReno partial-ACK recovery.  false = classic Reno, the paper-era
  /// ns-2 default: a partial ACK ends fast recovery without retransmitting
  /// the next hole, so multi-packet loss bursts typically cost a timeout —
  /// the very sensitivity to nearly-full drop-tail queues the paper
  /// describes in §4.1.  The fairness figures use classic Reno; NewReno is
  /// available for robustness-oriented experiments.
  bool newreno{false};
};

/// TCP Reno bulk sender (with NewReno partial-ACK recovery so that
/// multi-packet loss bursts do not degenerate into timeout chains).
///
/// This is the competing-traffic baseline of every fairness figure: an
/// ACK-clocked window protocol with slow start, AIMD congestion avoidance,
/// fast retransmit/recovery and an exponentially backed-off RTO.  It sends
/// back-to-back whenever the window opens — the burstiness the paper calls
/// out when explaining TFMCC/TCP differences at drop-tail queues (§4.1).
class TcpSender final : public Agent {
 public:
  TcpSender(Simulator& sim, Topology& topo, NodeId self, PortId port,
            NodeId peer, PortId peer_port, FlowId flow,
            TcpConfig cfg = {});

  /// Begin transmitting at `at`.
  void start(SimTime at);
  void stop() { running_ = false; }

  void handle_packet(const Packet& p) override;

  // --- diagnostics ---------------------------------------------------------
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  SimTime srtt() const { return srtt_; }
  std::int64_t packets_sent() const { return packets_sent_; }
  std::int64_t retransmits() const { return retransmits_; }
  std::int64_t timeouts() const { return timeouts_; }
  FlowId flow() const { return flow_; }

 private:
  void try_send();
  void transmit(std::int64_t seqno, bool retransmit);
  void on_ack(const TcpHeader& h, SimTime now);
  void enter_fast_recovery();
  void on_rto();
  void restart_rto_timer();
  void update_rtt(SimTime sample);
  SimTime current_rto() const;
  double flight_size() const {
    return static_cast<double>(next_seq_ - snd_una_);
  }

  Simulator& sim_;
  Topology& topo_;
  NodeId self_;
  PortId port_;
  NodeId peer_;
  PortId peer_port_;
  FlowId flow_;
  TcpConfig cfg_;

  bool running_{false};
  std::int64_t next_seq_{0};   // next new sequence number to send
  std::int64_t snd_una_{0};    // lowest unacknowledged seqno
  double cwnd_;
  double ssthresh_;
  int dup_acks_{0};
  bool in_recovery_{false};
  std::int64_t recover_{0};    // highest seqno outstanding when loss detected

  SimTime srtt_{};
  SimTime rttvar_{};
  bool have_rtt_{false};
  int rto_backoff_{0};
  EventId rto_timer_{};

  std::int64_t packets_sent_{0};
  std::int64_t retransmits_{0};
  std::int64_t timeouts_{0};
};

/// TCP receiver: cumulative ACKs, out-of-order buffering, timestamp echo.
class TcpSink final : public Agent {
 public:
  TcpSink(Simulator& sim, Topology& topo, NodeId self, PortId port,
          std::int32_t ack_bytes = kAckPacketBytes);

  void handle_packet(const Packet& p) override;

  /// Invoked once per in-order delivered data packet: (time, bytes).
  /// Used by the benches to bin goodput.
  void set_delivery_observer(std::function<void(SimTime, std::int32_t)> f) {
    observer_ = std::move(f);
  }

  std::int64_t delivered_packets() const { return delivered_; }

 private:
  Simulator& sim_;
  Topology& topo_;
  NodeId self_;
  PortId port_;
  std::int32_t ack_bytes_;
  std::int64_t rcv_next_{0};
  std::set<std::int64_t> out_of_order_;
  std::int64_t delivered_{0};
  std::function<void(SimTime, std::int32_t)> observer_;
};

/// Convenience bundle: a sender/sink pair wired across the topology with a
/// goodput binner attached — what the figure harnesses instantiate per flow.
struct TcpFlow {
  TcpFlow(Simulator& sim, Topology& topo, NodeId src, NodeId dst, FlowId id,
          SimTime bin_width = SimTime::seconds(1.0), TcpConfig cfg = {});

  void start(SimTime at) { sender->start(at); }
  void stop() { sender->stop(); }
  double mean_kbps(SimTime from, SimTime to) const {
    return goodput.mean_kbps(from, to);
  }

  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpSink> sink;
  ThroughputBinner goodput;

  /// Ports are allocated per flow id so many flows can share nodes.
  static PortId sender_port(FlowId id) { return 1000 + 2 * id; }
  static PortId sink_port(FlowId id) { return 1001 + 2 * id; }
};

}  // namespace tfmcc
