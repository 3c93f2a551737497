#include "tfmcc/receiver.hpp"

#include <cassert>

#include "tfmcc/feedback_timer.hpp"

namespace tfmcc {

TfmccReceiver::TfmccReceiver(Simulator& sim, MulticastSession& session,
                             NodeId self, std::int32_t receiver_id,
                             TfmccConfig cfg, Rng rng)
    : sim_{sim},
      id_{receiver_id},
      rtt_{kInitialRtt},
      cfg_{cfg},
      core_{cfg},
      session_{session},
      self_{self},
      rng_{std::move(rng)} {}

TfmccReceiver::~TfmccReceiver() {
  if (joined_) {
    session_.topology().node(self_).detach_agent(session_.data_port());
  }
}

void TfmccReceiver::join() {
  if (joined_) return;
  // A rejoin after leave() starts a fresh membership.  The previous
  // membership's sequence space, loss history, RTT estimate and round state
  // must not leak in: the seqno gap accumulated while absent would read as
  // a phantom loss burst, and a stale RTT/loss estimate would skew the
  // first reports of the new membership.  State is reset here (not in
  // leave()) so post-leave inspection of the final membership stays valid.
  // feedback_sent_ is a lifetime counter, not membership state: harnesses
  // sum it across the whole run, so it survives rejoins.
  if (ever_left_) {
    core_ = ReceiverCore{cfg_};
    rtt_ = kInitialRtt;
    has_owd_ = false;
  }
  session_.topology().node(self_).attach_agent(session_.data_port(), this);
  session_.join(self_);
  joined_ = true;
}

void TfmccReceiver::leave() {
  if (!joined_) return;
  // Explicit leave report (§4.2): lets the sender react in one RTT instead
  // of waiting for the CLR silence timeout.
  session_.send_report(self_, kFeedbackPacketBytes,
                       core_.leave_report(id_, sim_.now()));
  ++feedback_sent_;

  session_.leave(self_);
  session_.topology().node(self_).detach_agent(session_.data_port());
  joined_ = false;
  ever_left_ = true;
  is_clr_ = false;
  sim_.cancel(fb_timer_);
  sim_.cancel(clr_timer_);
}

void TfmccReceiver::handle_packet(const Packet& p) {
  const auto* data = p.tfmcc_data();
  if (data == nullptr) return;
  const TfmccDataHeader& h = *data;
  const SimTime now = sim_.now();
  if (const auto init = core_.clock_sync_rtt(h, now, cfg_)) rtt_ = *init;
  // The meter counts packets of the one TFMCC data size.
  assert(p.size_bytes == kDataPacketBytes);
  if (!core_.on_data(h, now, rtt_, cfg_)) return;
  goodput_.add(now, p.size_bytes);
  if (observed_) data_observer_(now, h);

  process_echo(h, now);
  process_one_way_delay(h, now);
  update_clr_status(h);

  if (h.round != core_.round) on_new_round(h, now);
  if (fb_timer_.pending() &&
      core_.suppressed(SuppressionEcho::of(h), now, rtt_, cfg_)) {
    sim_.cancel(fb_timer_);
  }
}

void TfmccReceiver::process_echo(const TfmccDataHeader& h, SimTime now) {
  if (!h.echo.valid() || h.echo.receiver != id_) return;
  const SimTime sample = now - h.echo.ts - h.echo.delay;
  if (sample <= SimTime::zero()) return;

  if (!core_.rtt_measured) {
    const SimTime prior = rtt_;
    rtt_ = sample;
    core_.on_first_rtt(rtt_, rtt_, prior);
  } else {
    const double alpha = is_clr_ ? kRttEwmaClr : kRttEwmaNonClr;
    rtt_ = sample * alpha + rtt_ * (1.0 - alpha);
  }
  // Remember the receiver->sender one-way delay implied by this measurement
  // (clock skew included; it cancels in later adjustments, §2.4.3).
  const SimTime owd_sr = now - h.send_ts;
  owd_rs_ = sample - owd_sr;
  has_owd_ = true;
}

void TfmccReceiver::process_one_way_delay(const TfmccDataHeader& h,
                                          SimTime now) {
  if (!core_.rtt_measured || !has_owd_) return;
  if (h.echo.valid() && h.echo.receiver == id_) return;  // real sample wins
  const SimTime owd_sr = now - h.send_ts;
  const SimTime rtt_adj = owd_rs_ + owd_sr;
  if (rtt_adj <= SimTime::zero()) return;
  rtt_ = rtt_adj * cfg_.rtt_ewma_owd + rtt_ * (1.0 - cfg_.rtt_ewma_owd);
}

void TfmccReceiver::update_clr_status(const TfmccDataHeader& h) {
  const bool now_clr = (h.clr == id_);
  if (now_clr && !is_clr_) {
    is_clr_ = true;
    sim_.cancel(fb_timer_);  // the CLR reports immediately, not via timers
    schedule_clr_feedback();
  } else if (!now_clr && is_clr_) {
    is_clr_ = false;
    sim_.cancel(clr_timer_);
  }
}

void TfmccReceiver::schedule_clr_feedback() {
  if (!is_clr_ || !joined_) return;
  // The CLR reports once per RTT without suppression (§2.2, §2.5).
  clr_timer_ = sim_.in(rtt_, [this] {
    if (!is_clr_ || !joined_) return;
    send_feedback();
    schedule_clr_feedback();
  });
}

void TfmccReceiver::on_new_round(const TfmccDataHeader& h, SimTime now) {
  core_.round = h.round;
  sim_.cancel(fb_timer_);
  if (is_clr_) return;  // CLR feedback is periodic, not per-round

  // Only receivers whose state is useful to the sender set a timer.
  const double rate = core_.own_rate_Bps(h.slowstart, now, rtt_, cfg_);
  if (!core_.eligible(h.slowstart, rate, h.send_rate_Bps)) return;
  const double t_units = feedback_timer::draw(
      bias_ratio(rate, h.send_rate_Bps), cfg_.timer, rng_);
  fb_timer_ = sim_.in(h.fb_deadline * t_units, [this] { send_feedback(); });
}

void TfmccReceiver::send_feedback() {
  if (!joined_) return;
  session_.send_report(self_, kFeedbackPacketBytes,
                       core_.report(id_, rtt_, core_.rtt_measured, sim_.now(),
                                    SimTime::zero(), cfg_));
  ++feedback_sent_;
}

}  // namespace tfmcc
