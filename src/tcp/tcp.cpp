#include "tcp/tcp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace tfmcc {

namespace {
constexpr double kInitialCwnd = 2.0;
constexpr double kInitialSsthresh = 64.0;
constexpr SimTime kMinRto = SimTime::millis(200);
constexpr SimTime kMaxRto = SimTime::seconds(60.0);
}  // namespace

TcpSender::TcpSender(Simulator& sim, Topology& topo, NodeId self, PortId port,
                     NodeId peer, PortId peer_port, FlowId flow)
    : sim_{sim},
      topo_{topo},
      self_{self},
      port_{port},
      peer_{peer},
      peer_port_{peer_port},
      flow_{flow},
      cwnd_{kInitialCwnd},
      ssthresh_{kInitialSsthresh} {
  topo_.node(self_).attach_agent(port_, this);
}

void TcpSender::start(SimTime at) {
  sim_.at(at, [this] {
    running_ = true;
    try_send();
    restart_rto_timer();
  });
}

void TcpSender::handle_packet(const Packet& p) {
  const TcpHeader* h = p.tcp();
  if (h == nullptr || !h->is_ack || h->flow != flow_) return;
  on_ack(*h, sim_.now());
}

void TcpSender::try_send() {
  if (!running_) return;
  // Effective window: cwnd, inflated by the dup-ACK count during fast
  // recovery (the classic Reno window inflation).
  while (static_cast<double>(next_seq_ - snd_una_) < std::floor(cwnd_)) {
    transmit(next_seq_, false);
    ++next_seq_;
  }
}

void TcpSender::transmit(std::int64_t seqno, bool retransmit) {
  auto pkt = sim_.make_packet();
  pkt->src = self_;
  pkt->dst = peer_;
  pkt->sport = port_;
  pkt->dport = peer_port_;
  pkt->size_bytes = kDataPacketBytes;
  TcpHeader h;
  h.flow = flow_;
  h.seqno = seqno;
  h.ts = sim_.now();
  pkt->header = h;
  topo_.node(self_).send(std::move(pkt));
  ++packets_sent_;
  if (retransmit) ++retransmits_;
}

void TcpSender::on_ack(const TcpHeader& h, SimTime now) {
  if (h.ts_echo > SimTime::zero()) update_rtt(now - h.ts_echo);

  if (h.ackno > snd_una_) {
    // New data acknowledged.
    rto_backoff_ = 0;
    if (in_recovery_) {
      // Classic Reno: any new ACK ends fast recovery and deflates the window
      // to ssthresh.  Remaining holes need another triple-dupACK or, at
      // small windows, an RTO.
      in_recovery_ = false;
      cwnd_ = ssthresh_;
      dup_acks_ = 0;
    } else {
      dup_acks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1.0;  // slow start
      } else {
        cwnd_ += 1.0 / cwnd_;  // congestion avoidance
      }
    }
    snd_una_ = h.ackno;
    restart_rto_timer();
    try_send();
    return;
  }

  // Duplicate ACK.
  if (h.ackno == snd_una_ && next_seq_ > snd_una_) {
    ++dup_acks_;
    if (!in_recovery_ && dup_acks_ == 3) {
      enter_fast_recovery();
    } else if (in_recovery_) {
      cwnd_ += 1.0;  // window inflation per extra dup ACK
      try_send();
    }
  }
}

void TcpSender::enter_fast_recovery() {
  ssthresh_ = std::max(flight_size() / 2.0, 2.0);
  cwnd_ = ssthresh_ + 3.0;
  in_recovery_ = true;
  transmit(snd_una_, true);
  restart_rto_timer();
}

void TcpSender::on_rto() {
  if (!running_) return;
  ++timeouts_;
  ssthresh_ = std::max(flight_size() / 2.0, 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  in_recovery_ = false;
  rto_backoff_ = std::min(rto_backoff_ + 1, 10);
  transmit(snd_una_, true);
  restart_rto_timer();
}

SimTime TcpSender::current_rto() const {
  SimTime rto = have_rtt_ ? srtt_ + 4.0 * rttvar_ : SimTime::seconds(3.0);
  rto = std::max(rto, kMinRto);
  for (int i = 0; i < rto_backoff_; ++i) rto = rto * 2.0;
  return std::min(rto, kMaxRto);
}

void TcpSender::restart_rto_timer() {
  sim_.cancel(rto_timer_);
  if (next_seq_ == snd_una_ && !running_) return;
  rto_timer_ = sim_.in(current_rto(), [this] { on_rto(); });
}

void TcpSender::update_rtt(SimTime sample) {
  if (sample <= SimTime::zero()) return;
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
    have_rtt_ = true;
    return;
  }
  const SimTime err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
  rttvar_ = rttvar_ * 0.75 + err * 0.25;
  srtt_ = srtt_ * 0.875 + sample * 0.125;
}

TcpSink::TcpSink(Simulator& sim, Topology& topo, NodeId self, PortId port)
    : sim_{sim}, topo_{topo}, self_{self}, port_{port} {
  topo_.node(self_).attach_agent(port_, this);
}

void TcpSink::handle_packet(const Packet& p) {
  const TcpHeader* h = p.tcp();
  if (h == nullptr || h->is_ack) return;

  if (h->seqno == rcv_next_) {
    ++rcv_next_;
    ++delivered_;
    goodput_.add(sim_.now(), p.size_bytes);
    // Drain contiguous out-of-order segments.
    while (!out_of_order_.empty() && *out_of_order_.begin() == rcv_next_) {
      out_of_order_.erase(out_of_order_.begin());
      ++rcv_next_;
      ++delivered_;
      goodput_.add(sim_.now(), p.size_bytes);
    }
  } else if (h->seqno > rcv_next_) {
    out_of_order_.insert(h->seqno);
  }
  // else: old duplicate; still ACK (cumulative).

  auto ack = sim_.make_packet();
  ack->src = self_;
  ack->dst = p.src;
  ack->sport = port_;
  ack->dport = p.sport;
  ack->size_bytes = kAckPacketBytes;
  TcpHeader ah;
  ah.flow = h->flow;
  ah.is_ack = true;
  ah.ackno = rcv_next_;
  ah.ts_echo = h->ts;
  ack->header = ah;
  topo_.node(self_).send(std::move(ack));
}

TcpFlow::TcpFlow(Simulator& sim, Topology& topo, NodeId src, NodeId dst,
                 FlowId id)
    : sink{std::make_unique<TcpSink>(sim, topo, dst, sink_port(id))},
      sender{std::make_unique<TcpSender>(sim, topo, src, sender_port(id), dst,
                                         sink_port(id), id)},
      goodput{sink->goodput()} {}

}  // namespace tfmcc
