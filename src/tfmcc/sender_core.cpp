#include "tfmcc/sender_core.hpp"

#include <limits>
#include <tuple>

namespace tfmcc {

SenderCore::SenderCore(const TfmccConfig& cfg)
    : equation_{cfg.equation},
      remember_previous_clr_{cfg.remember_previous_clr},
      // Initial rate: one packet per (initial) RTT, as in TFRC.
      rate_{static_cast<double>(kDataPacketBytes) / kInitialRtt.to_seconds()} {
  echo_queue_.reserve(kMaxEchoQueue);
}

int SenderCore::known_receivers_with_rtt() const {
  int n = 0;
  for (const auto& [id, info] : receivers_) {
    if (info.has_rtt) ++n;
  }
  return n;
}

SimTime SenderCore::max_rtt_estimate() const {
  // Receivers that have not yet measured their RTT operate with the initial
  // value, so the suppression window must span it (footnote 7 explains the
  // resulting multi-second feedback delay early in a session).
  SimTime mx = SimTime::zero();
  bool all_measured = !receivers_.empty();
  for (const auto& [id, info] : receivers_) {
    if (info.has_rtt) {
      mx = std::max(mx, info.rtt);
    } else {
      all_measured = false;
    }
  }
  if (!all_measured) mx = std::max(mx, kInitialRtt);
  return mx;
}

SenderDecision SenderCore::on_round(SimTime now) {
  // Commit the slowstart target from the receive rates reported last round
  // (§2.6: the target increases only when feedback from a new round is in).
  if (slowstart_ && round_min_recv_ > 0.0) {
    ss_base_ = rate_;
    ss_target_ = std::max(kSlowstartMult * round_min_recv_, rate_);
    ss_commit_ = now;
  }
  round_min_recv_ = -1.0;

  ++round_;
  round_min_rate_ = -1.0;
  round_min_has_loss_ = false;

  // T = max(4 * R_max, (c+1) * s / rate): the low-rate extension of §2.5.3
  // keeps the suppression signal ahead of the feedback deadline even when
  // data packets (which carry the signal) are far apart.
  const double pkt_interval =
      static_cast<double>(kDataPacketBytes) / std::max(rate_, 1.0);
  round_T_ = std::max(kRoundRttMult * max_rtt_estimate(),
                      SimTime::seconds((kLowRateGuard + 1) * pkt_interval));

  // CLR liveness: no report for kClrTimeoutMult feedback delays means the
  // receiver crashed or became unreachable (§4.2).
  if (clr_ != kInvalidReceiver &&
      now - clr_last_fb_ > kClrTimeoutMult * round_T_) {
    return clr_lost(now);
  }
  return {};
}

TfmccEcho SenderCore::pick_echo(SimTime now) {
  TfmccEcho echo;
  if (!echo_queue_.empty()) {
    // Lowest (priority, rate) wins: new CLRs first, then receivers without
    // an RTT, then other receivers, then the CLR; ties to the lowest rate.
    auto best = echo_queue_.begin();
    for (auto it = echo_queue_.begin(); it != echo_queue_.end(); ++it) {
      if (it->priority < best->priority ||
          (it->priority == best->priority && it->rate_Bps < best->rate_Bps)) {
        best = it;
      }
    }
    echo.receiver = best->receiver;
    echo.ts = best->ts;
    echo.delay = now - best->fb_arrival;
    echo_queue_.erase(best);
    return echo;
  }
  // Default: keep refreshing the CLR's measurement (§2.4.2).
  auto it = receivers_.find(clr_);
  if (it != receivers_.end()) {
    echo.receiver = clr_;
    echo.ts = it->second.last_fb_ts;
    echo.delay = now - it->second.last_fb_arrival;
  }
  return echo;
}

TfmccDataHeader SenderCore::next_data(SimTime now) {
  // Gradual slowstart ramp: interpolate from the committed base to the
  // target over one (maximum) RTT rather than jumping (§2.6).
  if (slowstart_ && ss_target_ > 0.0) {
    const double frac = std::min(
        1.0, (now - ss_commit_) / std::max(max_rtt_estimate(), SimTime::millis(1)));
    rate_ = ss_base_ + (ss_target_ - ss_base_) * frac;
  }
  if (slowstart_) peak_ss_rate_ = std::max(peak_ss_rate_, rate_);

  TfmccDataHeader h;
  h.seqno = seqno_++;
  h.send_ts = now;
  h.send_rate_Bps = rate_;
  h.clr = clr_;
  h.slowstart = slowstart_;
  h.round = round_;
  h.fb_deadline = round_T_;
  h.supp_rate_Bps = round_min_rate_;
  h.supp_has_loss = round_min_has_loss_;
  h.echo = pick_echo(now);
  return h;
}

void SenderCore::set_clr(SimTime now, std::int32_t id, double rate,
                         bool ramp) {
  if (remember_previous_clr_ && clr_ != kInvalidReceiver && clr_ != id) {
    prev_clr_ = clr_;
    prev_clr_rate_ = clr_rate_;
    prev_clr_since_ = now;
  }
  clr_ = id;
  clr_rate_ = rate;
  clr_last_fb_ = now;
  ramp_ = ramp;
  auto it = receivers_.find(id);
  clr_rtt_ = (it != receivers_.end() && it->second.has_rtt) ? it->second.rtt
                                                            : kInitialRtt;
  clr_history_.emplace_back(now, id);
}

void SenderCore::take_clr(SimTime now, std::int32_t id, double eff) {
  set_clr(now, id, eff, /*ramp=*/false);
  rate_ = std::max(std::min(rate_, eff), kMinRateBps);
}

SenderDecision SenderCore::clr_lost(SimTime now) {
  receivers_.erase(clr_);
  clr_ = kInvalidReceiver;
  // Select the lowest-rate receiver we know of; ramp to its rate gradually
  // (one packet per RTT) since the loss estimate at the new, higher rate is
  // not yet meaningful (§2.2).
  std::int32_t best = kInvalidReceiver;
  double best_rate = std::numeric_limits<double>::infinity();
  for (const auto& [id, info] : receivers_) {
    if (info.rate_Bps >= 0.0 && info.rate_Bps < best_rate) {
      best = id;
      best_rate = info.rate_Bps;
    }
  }
  if (best != kInvalidReceiver) {
    set_clr(now, best, best_rate, /*ramp=*/true);
    return {SenderDecision::kClrLost | SenderDecision::kClrSwitched};
  }
  // No remaining receiver has a usable rate estimate (e.g. the only
  // congested receiver left and the others have never seen loss, so they
  // never report in steady state).  Fall back to the conservative
  // slowstart probe: receivers answer with receive rates, the rate ramps
  // bounded by 2x the minimum receive rate, and the first loss event
  // produces a fresh CLR (§2.6 semantics, re-applied mid-session).
  slowstart_ = true;
  ss_target_ = -1.0;
  round_min_recv_ = -1.0;
  return {SenderDecision::kClrLost | SenderDecision::kSlowstartReentered};
}

SenderDecision SenderCore::apply_clr_report(SimTime now,
                                            const ReceiverInfo& info,
                                            double eff, std::int32_t from) {
  clr_last_fb_ = now;
  if (info.has_rtt) clr_rtt_ = info.rtt;
  if (eff < 0.0) return {};  // keepalive without a rate estimate
  clr_rate_ = eff;

  // Appendix C: if the new CLR's rate rises back above the previous CLR's
  // stored rate shortly after a switch, switch back instead of increasing.
  if (remember_previous_clr_ && prev_clr_ != kInvalidReceiver &&
      prev_clr_ != from && now - prev_clr_since_ <= kPreviousClrHold &&
      eff > prev_clr_rate_ && receivers_.count(prev_clr_) > 0) {
    const double back_rate = std::min(prev_clr_rate_, rate_);
    set_clr(now, prev_clr_, back_rate, /*ramp=*/false);
    prev_clr_ = kInvalidReceiver;
    return {SenderDecision::kClrSwitchedBack};
  }

  double new_rate;
  if (eff <= rate_) {
    new_rate = eff;  // decreases take effect immediately (§2.2)
    ramp_ = false;
  } else if (ramp_) {
    // After a CLR change the increase is limited to one packet per RTT
    // (TCP's additive-increase constant, §2.2).
    const double step = kIncreaseLimitPkts *
                        static_cast<double>(kDataPacketBytes) /
                        std::max(clr_rtt_.to_seconds(), 1e-3);
    new_rate = std::min(eff, rate_ + step);
    if (new_rate >= eff) ramp_ = false;
  } else {
    new_rate = eff;
  }
  // Never send at more than kRecvRateCapMult times what the CLR actually
  // receives (TFRC's receive-rate cap; bounds overshoot after estimation
  // glitches).
  if (info.recv_rate_Bps > 0.0) {
    new_rate = std::min(new_rate, kRecvRateCapMult * info.recv_rate_Bps);
  }
  rate_ = std::max(new_rate, kMinRateBps);
  return {SenderDecision::kClrRateUpdated};
}

SenderDecision SenderCore::on_leave(SimTime now, std::int32_t id) {
  receivers_.erase(id);
  echo_queue_.erase(
      std::remove_if(echo_queue_.begin(), echo_queue_.end(),
                     [&](const PendingEcho& e) { return e.receiver == id; }),
      echo_queue_.end());
  SenderDecision d;
  if (id == clr_) d = clr_lost(now);
  if (id == prev_clr_) prev_clr_ = kInvalidReceiver;
  return d;
}

void SenderCore::queue_echo(const PendingEcho& pe) {
  auto it = std::find_if(echo_queue_.begin(), echo_queue_.end(),
                         [&](const PendingEcho& e) { return e.receiver == pe.receiver; });
  if (it != echo_queue_.end()) {
    *it = pe;
  } else if (echo_queue_.size() < kMaxEchoQueue) {
    echo_queue_.push_back(pe);
  } else {
    // Queue full: replace the worst entry if we beat it.
    auto worst = std::max_element(
        echo_queue_.begin(), echo_queue_.end(),
        [](const PendingEcho& a, const PendingEcho& b) {
          return std::tie(a.priority, a.rate_Bps) < std::tie(b.priority, b.rate_Bps);
        });
    if (std::tie(pe.priority, pe.rate_Bps) <
        std::tie(worst->priority, worst->rate_Bps)) {
      *worst = pe;
    }
  }
}

void SenderCore::note_round_min(const TfmccFeedbackHeader& f, double eff) {
  // Suppression echo: track this round's lowest useful report (§2.5.2).  In
  // slowstart the comparison value is the receive rate and loss reports
  // dominate no-loss reports (§2.6).
  if (f.round != round_) return;
  const double value = slowstart_ ? f.recv_rate_Bps : eff;
  if (value < 0.0) return;
  bool replace;
  if (round_min_rate_ < 0.0) {
    replace = true;
  } else if (slowstart_ && f.has_loss != round_min_has_loss_) {
    replace = f.has_loss;  // loss reports dominate
  } else {
    replace = value < round_min_rate_;
  }
  if (replace) {
    round_min_rate_ = value;
    round_min_has_loss_ = f.has_loss;
  }
}

SenderDecision SenderCore::on_feedback(SimTime now,
                                       const TfmccFeedbackHeader& f) {
  ++feedback_received_;
  if (f.leaving) return on_leave(now, f.receiver);

  // Sender-side RTT measurement (§2.4.4): echo of our data timestamp minus
  // the receiver's hold time.
  SimTime sender_rtt = SimTime::zero();
  if (f.echo_ts > SimTime::zero()) {
    const SimTime sample = now - f.echo_ts - f.echo_delay;
    if (sample > SimTime::zero()) sender_rtt = sample;
  }

  // Effective calculated rate: reports computed with the initial RTT are
  // recomputed with the sender-side measurement before being acted upon.
  double eff = f.calc_rate_Bps;
  if (!f.has_rtt && f.loss_event_rate > 0.0 && sender_rtt > SimTime::zero()) {
    eff = equation_->throughput_Bps(kDataPacketBytes, sender_rtt,
                                    f.loss_event_rate);
  }

  // The one CLR-switch decision (§2.2), taken before this report updates
  // any state; the echo priority and the switch below both use it.  A
  // report takes over only if it is below the CLR's own rate as well as
  // the sending rate: at the rate floor the sending rate sits above the
  // CLR's, and every below-floor report would otherwise take over.
  const bool switches_clr =
      !slowstart_ && eff >= 0.0 && f.receiver != clr_ &&
      (clr_ == kInvalidReceiver || eff < std::min(rate_, clr_rate_));

  auto& info = receivers_[f.receiver];
  info.rate_Bps = eff;
  info.recv_rate_Bps = f.recv_rate_Bps;
  info.has_rtt = f.has_rtt;
  info.rtt = f.has_rtt ? f.rtt
                       : (sender_rtt > SimTime::zero() ? sender_rtt
                                                       : kInitialRtt);
  info.last_fb_ts = f.ts;
  info.last_fb_arrival = now;

  // Echo-slot queue (§2.4.2 priority order).
  int prio;
  if (switches_clr) {
    prio = 0;
  } else if (!f.has_rtt) {
    prio = 1;
  } else if (f.receiver != clr_) {
    prio = 2;
  } else {
    prio = 3;
  }
  queue_echo({prio, eff < 0.0 ? f.recv_rate_Bps : eff, f.receiver, f.ts, now});
  note_round_min(f, eff);

  if (slowstart_) {
    if (f.has_loss) {
      // First loss anywhere in the group terminates slowstart (§2.6).
      slowstart_ = false;
      ss_target_ = -1.0;
      ss_exit_time_ = now;
      if (eff >= 0.0) {
        take_clr(now, f.receiver, eff);
      } else {
        set_clr(now, f.receiver, rate_, /*ramp=*/false);
      }
      return {SenderDecision::kSlowstartExited |
              SenderDecision::kClrSwitched};
    }
    if (f.recv_rate_Bps > 0.0) {
      round_min_recv_ = round_min_recv_ < 0.0
                            ? f.recv_rate_Bps
                            : std::min(round_min_recv_, f.recv_rate_Bps);
    }
    return {};
  }

  // Steady state: a lower report takes over the CLR and the rate drops
  // immediately (§2.2); the CLR's own reports drive the rate.
  if (switches_clr) {
    take_clr(now, f.receiver, eff);
    return {SenderDecision::kClrSwitched};
  }
  if (f.receiver == clr_) return apply_clr_report(now, info, eff, f.receiver);
  return {};
}

}  // namespace tfmcc
