#pragma once

#include <cstdint>
#include <set>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace tfmcc {

/// TCP Reno bulk sender: classic Reno, the paper-era ns-2 default the §4.1
/// fairness figures use.  A new ACK during fast recovery ends it without
/// retransmitting the next hole (no NewReno partial-ACK recovery), so
/// multi-packet loss bursts typically cost a timeout: the very sensitivity
/// to nearly-full drop-tail queues the paper describes in §4.1.
///
/// This is the competing-traffic baseline of every fairness figure: an
/// ACK-clocked window protocol with slow start, AIMD congestion avoidance,
/// fast retransmit/recovery and an exponentially backed-off RTO.  It sends
/// back-to-back whenever the window opens — the burstiness the paper calls
/// out when explaining TFMCC/TCP differences at drop-tail queues (§4.1).
class TcpSender final : public Agent {
 public:
  TcpSender(Simulator& sim, Topology& topo, NodeId self, PortId port,
            NodeId peer, PortId peer_port, FlowId flow);

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

  bool running_{false};
  std::int64_t next_seq_{0};   // next new sequence number to send
  std::int64_t snd_una_{0};    // lowest unacknowledged seqno
  double cwnd_;
  double ssthresh_;
  int dup_acks_{0};
  bool in_recovery_{false};

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
  TcpSink(Simulator& sim, Topology& topo, NodeId self, PortId port);

  void handle_packet(const Packet& p) override;

  std::int64_t delivered_packets() const { return delivered_; }
  /// Bytes of every in-order delivered data packet, in 1 s bins.
  const ThroughputBinner& goodput() const { return goodput_; }

 private:
  Simulator& sim_;
  Topology& topo_;
  NodeId self_;
  PortId port_;
  std::int64_t rcv_next_{0};
  std::set<std::int64_t> out_of_order_;
  std::int64_t delivered_{0};
  ThroughputBinner goodput_{SimTime::seconds(1.0)};
};

/// Convenience bundle: a sender/sink pair wired across the topology, with
/// the sink's goodput in reach — what the figure harnesses instantiate per
/// flow.
struct TcpFlow {
  TcpFlow(Simulator& sim, Topology& topo, NodeId src, NodeId dst, FlowId id);

  void start(SimTime at) { sender->start(at); }
  void stop() { sender->stop(); }
  double mean_kbps(SimTime from, SimTime to) const {
    return goodput.mean_kbps(from, to);
  }

  std::unique_ptr<TcpSink> sink;
  std::unique_ptr<TcpSender> sender;
  /// The sink's goodput.
  const ThroughputBinner& goodput;

  /// Ports are allocated per flow id so many flows can share nodes.
  static PortId sender_port(FlowId id) { return 1000 + 2 * id; }
  static PortId sink_port(FlowId id) { return 1001 + 2 * id; }
};

}  // namespace tfmcc
