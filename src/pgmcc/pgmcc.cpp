#include "pgmcc/pgmcc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "tfmcc/feedback_timer.hpp"
#include "tfrc/equation.hpp"

namespace tfmcc {

namespace {
constexpr PortId kPgmccSenderPort = 11;
constexpr double kInitialWindow = 2.0;
/// Acker switch hysteresis: switch when the candidate's modelled throughput
/// is below this fraction of the acker's (Rizzo §3.2 uses a comparable
/// guard against acker oscillation).
constexpr double kHysteresis = 0.9;
/// Report suppression window, in initial RTTs.
constexpr double kReportTMult = 4.0;
constexpr int kLossHistoryDepth = 8;
constexpr SimTime kMinRto = SimTime::millis(200);
// RTTs start at TFMCC's kInitialRtt (tfmcc/config.hpp), 500 ms.
}  // namespace

// ---------------------------------------------------------------- sender --

PgmccSender::PgmccSender(Simulator& sim, MulticastSession& session)
    : sim_{sim},
      session_{session},
      window_{kInitialWindow},
      tokens_{kInitialWindow},
      acker_rtt_{kInitialRtt} {
  session_.topology()
      .node(session_.source())
      .attach_agent(kPgmccSenderPort, this);
}

PgmccSender::~PgmccSender() {
  session_.topology().node(session_.source()).detach_agent(kPgmccSenderPort);
}

void PgmccSender::start(SimTime at) {
  sim_.at(at, [this] {
    running_ = true;
    send_packets();
    restart_rto();
  });
}

void PgmccSender::stop() {
  running_ = false;
  sim_.cancel(rto_timer_);
  sim_.cancel(send_timer_);
}

void PgmccSender::send_packets() {
  while (running_ && tokens_ >= 1.0) {
    tokens_ -= 1.0;
    transmit();
  }
}

void PgmccSender::transmit() {
  auto pkt = sim_.make_packet();
  pkt->src = session_.source();
  pkt->sport = kPgmccSenderPort;
  pkt->dport = session_.data_port();
  pkt->group = session_.group();
  pkt->size_bytes = kDataPacketBytes;
  TfmccDataHeader h;  // PGMCC reuses the data-header layout; clr == acker
  h.seqno = seqno_++;
  h.send_ts = sim_.now();
  h.clr = acker_;
  pkt->header = h;
  session_.send_from_source(std::move(pkt));
}

double PgmccSender::modelled_rate(const ReceiverInfo& info) const {
  // Rizzo's election metric: T ~ 1/(rtt * sqrt(p)).  Receivers without a
  // loss estimate are unconstrained.
  if (info.loss_rate <= 0.0) return std::numeric_limits<double>::infinity();
  const SimTime rtt = info.has_rtt ? info.rtt : kInitialRtt;
  return tcp_model::simple_throughput_Bps(kDataPacketBytes, rtt,
                                          info.loss_rate);
}

void PgmccSender::maybe_switch_acker(std::int32_t candidate) {
  if (candidate == acker_) return;
  auto cit = receivers_.find(candidate);
  if (cit == receivers_.end()) return;
  if (acker_ == kInvalidReceiver) {
    acker_ = candidate;
    recover_ = seqno_;  // ignore losses from the transition
    restart_rto();
    return;
  }
  auto ait = receivers_.find(acker_);
  const double acker_rate = ait == receivers_.end()
                                ? std::numeric_limits<double>::infinity()
                                : modelled_rate(ait->second);
  if (modelled_rate(cit->second) < kHysteresis * acker_rate) {
    acker_ = candidate;
    recover_ = seqno_;
    restart_rto();
  }
}

void PgmccSender::handle_packet(const Packet& p) {
  if (const auto* a = p.pgmcc_ack()) {
    // Sender-side RTT to the acker.
    const SimTime sample = sim_.now() - a->ts_echo - a->echo_delay;
    if (sample > SimTime::zero()) {
      acker_rtt_ = have_acker_rtt_ ? acker_rtt_ * 0.875 + sample * 0.125
                                   : sample;
      have_acker_rtt_ = true;
    }
    auto& info = receivers_[a->receiver];
    info.loss_rate = a->loss_rate;
    info.rtt = acker_rtt_;
    info.has_rtt = true;

    if (a->receiver != acker_) return;  // stale ACKs from a previous acker

    if (a->seqno > highest_acked_) {
      if (a->seqno > highest_acked_ + 1 && highest_acked_ >= 0 &&
          a->seqno > recover_) {
        // Gap in the ACK stream: data loss on the acker's path.  One
        // halving per window's worth of data (TCP semantics).  The token
        // debt makes the sender pause until half a window of ACKs has
        // drained, so the in-flight amount actually shrinks to the new
        // window (Rizzo's "ignore" phase).
        const double old_w = window_;
        window_ = std::max(window_ / 2.0, 1.0);
        tokens_ -= (old_w - window_);
        recover_ = seqno_;
        ++halvings_;
      }
      highest_acked_ = a->seqno;
      // Token return + linear growth (one extra packet per window).
      tokens_ += 1.0 + 1.0 / window_;
      window_ += 1.0 / window_;
      restart_rto();
      send_packets();
    }
    return;
  }
  if (const auto* f = p.tfmcc_feedback()) {
    on_report(*f);
  }
}

void PgmccSender::on_report(const TfmccFeedbackHeader& f) {
  auto& info = receivers_[f.receiver];
  info.loss_rate = f.loss_event_rate;
  if (f.echo_ts > SimTime::zero()) {
    const SimTime sample = sim_.now() - f.echo_ts - f.echo_delay;
    if (sample > SimTime::zero()) {
      info.rtt = sample;
      info.has_rtt = true;
    }
  }
  maybe_switch_acker(f.receiver);
}

void PgmccSender::on_rto() {
  if (!running_) return;
  // The ACK clock stalled: collapse the window and restart it.
  window_ = std::max(window_ / 2.0, 1.0);
  tokens_ = 1.0;
  recover_ = seqno_;
  send_packets();
  restart_rto();
}

void PgmccSender::restart_rto() {
  sim_.cancel(rto_timer_);
  const SimTime rto =
      std::max(kMinRto, have_acker_rtt_ ? 4.0 * acker_rtt_ : 2.0 * kInitialRtt);
  rto_timer_ = sim_.in(rto, [this] { on_rto(); });
}

// -------------------------------------------------------------- receiver --

PgmccReceiver::PgmccReceiver(Simulator& sim, MulticastSession& session,
                             NodeId self, std::int32_t receiver_id, Rng rng)
    : sim_{sim},
      session_{session},
      self_{self},
      id_{receiver_id},
      rng_{std::move(rng)},
      loss_{kLossHistoryDepth} {}

PgmccReceiver::~PgmccReceiver() {
  if (joined_) {
    session_.topology().node(self_).detach_agent(session_.data_port());
  }
}

void PgmccReceiver::join() {
  if (joined_) return;
  session_.topology().node(self_).attach_agent(session_.data_port(), this);
  session_.join(self_);
  joined_ = true;
}

void PgmccReceiver::leave() {
  if (!joined_) return;
  session_.leave(self_);
  session_.topology().node(self_).detach_agent(session_.data_port());
  joined_ = false;
  is_acker_ = false;
  sim_.cancel(report_timer_);
}

void PgmccReceiver::handle_packet(const Packet& p) {
  const auto* h = p.tfmcc_data();
  if (h == nullptr) return;
  const SimTime now = sim_.now();

  const auto seq_result = seq_.on_seqno(h->seqno);
  if (seq_result.duplicate) return;
  bool new_loss_event = false;
  for (std::int64_t i = 0; i < seq_result.lost; ++i) {
    new_loss_event |= loss_.on_packet_lost(now, kInitialRtt);
  }
  loss_.on_packet_received();
  goodput_.add(now, p.size_bytes);

  last_data_send_ts_ = h->send_ts;
  last_data_arrival_ = now;
  is_acker_ = (h->clr == id_);

  if (is_acker_) {
    send_ack(*h);
    return;
  }
  // Non-acker: report when we have something the election needs — a fresh
  // loss event, or the initial hello while no acker exists.
  if ((new_loss_event || h->clr == kInvalidReceiver) &&
      !report_timer_.pending()) {
    schedule_report();
  }
}

void PgmccReceiver::send_ack(const TfmccDataHeader& h) {
  auto ack = sim_.make_packet();
  ack->src = self_;
  ack->dst = session_.source();
  ack->sport = session_.data_port();
  ack->dport = kPgmccSenderPort;
  ack->size_bytes = kAckPacketBytes;
  PgmccAckHeader a;
  a.receiver = id_;
  a.seqno = h.seqno;
  a.ts_echo = h.send_ts;
  a.echo_delay = SimTime::zero();
  a.loss_rate = loss_.loss_event_rate();
  ack->header = a;
  session_.topology().node(self_).send(std::move(ack));
  ++acks_sent_;
}

void PgmccReceiver::schedule_report() {
  // Exponential-timer spread over kReportTMult RTTs; with NAK suppression
  // delegated to the same timer family TFMCC uses.
  FeedbackTimerConfig tcfg;
  tcfg.method = BiasMethod::kUnbiased;
  const double units = feedback_timer::draw(1.0, tcfg, rng_);
  const SimTime delay = kReportTMult * kInitialRtt * units;
  report_timer_ = sim_.in(delay, [this] { send_report(sim_.now()); });
}

void PgmccReceiver::send_report(SimTime now) {
  if (!joined_) return;
  auto rep = sim_.make_packet();
  rep->src = self_;
  rep->dst = session_.source();
  rep->sport = session_.data_port();
  rep->dport = kPgmccSenderPort;
  rep->size_bytes = kFeedbackPacketBytes;
  TfmccFeedbackHeader f;
  f.receiver = id_;
  f.loss_event_rate = loss_.loss_event_rate();
  f.ts = now;
  f.echo_ts = last_data_send_ts_;
  f.echo_delay =
      last_data_arrival_.is_infinite() ? SimTime::zero() : now - last_data_arrival_;
  rep->header = f;
  session_.topology().node(self_).send(std::move(rep));
}

}  // namespace tfmcc
