#include "tfmcc/receiver_block.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/feedback_model.hpp"
#include "tfmcc/feedback_timer.hpp"
#include "tfrc/equation.hpp"

namespace tfmcc {

ModeledReceiverBlock::ModeledReceiverBlock(Simulator& sim,
                                           MulticastSession& session,
                                           NodeId tap, BlockConfig block_cfg,
                                           TfmccConfig cfg, Rng rng)
    : sim_{sim},
      session_{session},
      tap_{tap},
      bcfg_{block_cfg},
      cfg_{cfg},
      rng_{std::move(rng)},
      loss_{cfg.loss_history_depth} {
  const auto n = static_cast<std::size_t>(bcfg_.count);
  rtt_.assign(n, cfg_.initial_rtt);
  extra_owd_.resize(n);
  flags_.assign(n, 0);
  ps_scratch_.resize(n);
  calc_scratch_.resize(n);
  rtt_sum_s_ = cfg_.initial_rtt.to_seconds() * static_cast<double>(bcfg_.count);
  // Stratify the virtual access delays evenly over the configured span:
  // deterministic coverage of the RTT range beats sampling it (the modeled
  // tier aggregates, it does not replicate one random draw).
  const SimTime span = bcfg_.extra_owd_max - bcfg_.extra_owd_min;
  for (std::size_t i = 0; i < n; ++i) {
    const double frac =
        n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 0.0;
    extra_owd_[i] = bcfg_.extra_owd_min + span * frac;
  }
}

ModeledReceiverBlock::~ModeledReceiverBlock() {
  if (joined_) {
    session_.topology().node(tap_).detach_agent(session_.data_port());
  }
}

void ModeledReceiverBlock::join() {
  if (joined_) return;
  session_.topology().node(tap_).attach_agent(session_.data_port(), this);
  session_.join(tap_);
  session_.add_modeled(bcfg_.count);
  joined_ = true;
}

void ModeledReceiverBlock::leave() {
  if (!joined_) return;
  const SimTime now = sim_.now();
  // Explicit leave reports (§4.2) for every receiver the sender knows of,
  // so a CLR held by this block is handed off in one RTT.
  for (int i = 0; i < bcfg_.count; ++i) {
    if ((flags_[static_cast<std::size_t>(i)] & ModeledRxInfo::kReported) == 0)
      continue;
    auto fb = sim_.make_packet();
    fb->src = tap_;
    fb->dst = session_.source();
    fb->sport = session_.data_port();
    fb->dport = session_.control_port();
    fb->size_bytes = cfg_.feedback_bytes;
    TfmccFeedbackHeader h;
    h.receiver = bcfg_.base_id + i;
    h.round = round_;
    h.leaving = true;
    h.ts = now;
    fb->header = h;
    session_.topology().node(tap_).send(std::move(fb));
    ++feedback_sent_;
  }
  session_.remove_modeled(bcfg_.count);
  session_.leave(tap_);
  session_.topology().node(tap_).detach_agent(session_.data_port());
  joined_ = false;
  sim_.cancel(cand_timer_);
  sim_.cancel(clr_timer_);
  if (clr_idx_ >= 0) {
    flags_[static_cast<std::size_t>(clr_idx_)] &=
        static_cast<std::uint8_t>(~ModeledRxInfo::kClr);
    clr_idx_ = -1;
  }
}

ModeledRxInfo ModeledReceiverBlock::rx_info(int i) const {
  const auto idx = static_cast<std::size_t>(i);
  ModeledRxInfo info;
  info.rtt_us = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, rtt_[idx].count_nanos() / 1000));
  info.extra_owd_us = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, extra_owd_[idx].count_nanos() / 1000));
  info.flags = flags_[idx];
  return info;
}

int ModeledReceiverBlock::candidate_cap() {
  if (cand_cap_ == 0) {
    // Size the per-round contender short-list from the analytic model:
    // E[M] is the expected number of reports that survive suppression in a
    // round of n receivers (worst case x = 0: every timer maximally
    // biased-early; T = t_mult RTTs, suppression signal one RTT behind).
    // 4x that expectation plus slack is a generous tail allowance.
    const double em = feedback_model::expected_messages(
        bcfg_.count, cfg_.t_mult, 1.0, 0.0, cfg_.timer);
    const int k = static_cast<int>(std::ceil(4.0 * em)) + 4;
    cand_cap_ = std::clamp(k, 8, std::max(8, bcfg_.max_candidates));
  }
  return cand_cap_;
}

SimTime ModeledReceiverBlock::representative_rtt() const {
  return SimTime::seconds(rtt_sum_s_ / static_cast<double>(bcfg_.count));
}

void ModeledReceiverBlock::set_rtt(int idx, SimTime rtt) {
  const auto i = static_cast<std::size_t>(idx);
  rtt_sum_s_ += rtt.to_seconds() - rtt_[i].to_seconds();
  rtt_[i] = rtt;
}

double ModeledReceiverBlock::calc_rate_Bps(int idx) const {
  const double p = loss_.loss_event_rate();
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  return cfg_.equation->throughput_Bps(cfg_.packet_bytes,
                                       rtt_[static_cast<std::size_t>(idx)], p);
}

void ModeledReceiverBlock::handle_packet(const Packet& p) {
  if (const auto* h = p.tfmcc_data()) on_data(p, *h);
}

void ModeledReceiverBlock::on_data(const Packet& p, const TfmccDataHeader& h) {
  const SimTime now = sim_.now();

  // Clock-sync RTT initialisation (§2.4.1), per modeled receiver: the tap's
  // one-way delay plus each receiver's virtual access detour.
  if (cfg_.use_clock_sync && !block_has_rtt_ && seq_.received() == 0) {
    const SimTime owd = now - h.send_ts;
    for (int i = 0; i < bcfg_.count; ++i) {
      set_rtt(i, (owd + cfg_.clock_sync_error) * 2.0 +
                     extra_owd_[static_cast<std::size_t>(i)] * 2.0);
    }
  }

  const auto seq_result = seq_.on_seqno(h.seqno);
  if (seq_result.duplicate) return;
  if (seq_result.lost > 0) process_losses(h, seq_result.lost);
  loss_.on_packet_received();
  recv_rate_.on_packet(now, p.size_bytes);

  last_data_send_ts_ = h.send_ts;
  last_data_arrival_ = now;
  last_send_rate_ = h.send_rate_Bps;

  process_echo(h, now);
  update_clr_status(h);

  if (h.round != round_) on_new_round(h, now);
  observe_suppression(h);
}

void ModeledReceiverBlock::process_losses(const TfmccDataHeader& h,
                                          std::int64_t lost) {
  const SimTime now = sim_.now();
  const SimTime rep = representative_rtt();
  const bool first_ever = !loss_.has_loss();
  bool new_event = false;
  for (std::int64_t i = 0; i < lost; ++i) {
    new_event |= loss_.on_packet_lost(now, rep);
  }
  if (first_ever && new_event) {
    // Appendix B, shared across the block: the receivers all observed the
    // same pre-loss receive rate.
    double rate_at_loss = recv_rate_.rate_Bps(now);
    if (rate_at_loss <= 0.0) rate_at_loss = h.send_rate_Bps * 0.5;
    if (rate_at_loss > 0.0) {
      const double p_init = cfg_.equation->loss_for_throughput(
          cfg_.packet_bytes, rep, rate_at_loss);
      loss_.init_first_interval(1.0 / p_init);
    }
  }
}

void ModeledReceiverBlock::process_echo(const TfmccDataHeader& h,
                                        SimTime now) {
  if (!h.echo.valid() || !hosts(h.echo.receiver)) return;
  const int idx = h.echo.receiver - bcfg_.base_id;
  const auto i = static_cast<std::size_t>(idx);
  const SimTime tap_sample = now - h.echo.ts - h.echo.delay;
  if (tap_sample <= SimTime::zero()) return;
  // The modeled path is the tap path plus the receiver's virtual detour.
  const SimTime sample = tap_sample + extra_owd_[i] * 2.0;

  if ((flags_[i] & ModeledRxInfo::kHasRtt) == 0) {
    flags_[i] |= ModeledRxInfo::kHasRtt;
    ++with_rtt_;
    set_rtt(idx, sample);
    if (!block_has_rtt_) {
      // Appendix A/B, once per block: the shared history was aggregated
      // with the (too high) initial RTT; remodel with a measured one.
      block_has_rtt_ = true;
      loss_.reaggregate(representative_rtt());
      loss_.rescale_initial_interval(sample, cfg_.initial_rtt);
    }
  } else {
    const double alpha =
        idx == clr_idx_ ? cfg_.rtt_ewma_clr : cfg_.rtt_ewma_non_clr;
    set_rtt(idx, sample * alpha + rtt_[i] * (1.0 - alpha));
  }
}

void ModeledReceiverBlock::update_clr_status(const TfmccDataHeader& h) {
  const int idx = hosts(h.clr) ? h.clr - bcfg_.base_id : -1;
  if (idx == clr_idx_) return;
  if (clr_idx_ >= 0) {
    flags_[static_cast<std::size_t>(clr_idx_)] &=
        static_cast<std::uint8_t>(~ModeledRxInfo::kClr);
    sim_.cancel(clr_timer_);
  }
  clr_idx_ = idx;
  if (idx >= 0) {
    flags_[static_cast<std::size_t>(idx)] |= ModeledRxInfo::kClr;
    schedule_clr_feedback();
  }
}

void ModeledReceiverBlock::schedule_clr_feedback() {
  if (clr_idx_ < 0 || !joined_) return;
  // The CLR reports once per RTT without suppression (§2.2, §2.5).
  clr_timer_ = sim_.in(rtt_[static_cast<std::size_t>(clr_idx_)], [this] {
    if (clr_idx_ < 0 || !joined_) return;
    send_feedback(clr_idx_);
    schedule_clr_feedback();
  });
}

void ModeledReceiverBlock::observe_suppression(const TfmccDataHeader& h) {
  if (h.round != round_) return;
  slowstart_round_ = h.slowstart;
  if (h.supp_rate_Bps >= 0.0) {
    supp_rate_Bps_ = h.supp_rate_Bps;
    supp_has_loss_ = h.supp_has_loss;
  }
}

void ModeledReceiverBlock::on_new_round(const TfmccDataHeader& h,
                                        SimTime now) {
  round_ = h.round;
  slowstart_round_ = h.slowstart;
  supp_rate_Bps_ = h.supp_rate_Bps;
  supp_has_loss_ = h.supp_has_loss;
  sim_.cancel(cand_timer_);
  candidates_.clear();
  next_candidate_ = 0;

  RoundDrawInput in;
  in.n = bcfg_.count;
  in.skip = clr_idx_;
  in.send_rate_Bps = h.send_rate_Bps;
  in.cap = candidate_cap();
  in.now = now;
  in.fb_deadline = h.fb_deadline;
  if (h.slowstart) {
    // §2.6: every receiver's receive rate matters; the rate (and therefore
    // the bias ratio) is shared across the block.
    if (!recv_rate_.has_estimate()) return;
    in.rate_Bps = recv_rate_.rate_Bps(now);
    if (in.send_rate_Bps > 0.0) {
      in.x = std::clamp(in.rate_Bps / in.send_rate_Bps, 0.0, 1.0);
    }
  } else {
    // Steady state: one batched equation evaluation over the contiguous RTT
    // array (shared p) decides each receiver's eligibility.
    const double p = loss_.loss_event_rate();
    if (p <= 0.0) return;  // calc rate infinite: nothing useful to report
    std::fill(ps_scratch_.begin(), ps_scratch_.end(), p);
    cfg_.equation->throughput_batch(cfg_.packet_bytes, rtt_.data(),
                                    ps_scratch_.data(), calc_scratch_.data(),
                                    static_cast<std::size_t>(in.n));
    in.calc_Bps = calc_scratch_.data();
  }
  draw_candidates(in, cfg_.timer, rng_, candidates_);
  schedule_next_candidate();
}

void draw_candidates(const RoundDrawInput& in, const FeedbackTimerConfig& timer,
                     Rng& rng, std::vector<FeedbackCandidate>& out) {
  out.clear();
  const auto cap = static_cast<std::size_t>(std::max(0, in.cap));
  const double fb_ns = static_cast<double>(in.fb_deadline.count_nanos());
  // Bounded max-heap keyed on (due, idx): only the earliest `cap` timers can
  // possibly report (everything later is suppressed by them or by the full
  // tier), so the other n - cap receivers never materialise as events.
  auto heap_before = [](const FeedbackCandidate& a, const FeedbackCandidate& b) {
    return a.due < b.due || (a.due == b.due && a.idx < b.idx);
  };
  // Draws come in index order, so a full heap admits only timers due
  // strictly before its top.  Every u above `u_skip` is due no earlier, so
  // it is skipped before the timer transform; 2 (above any uniform01)
  // skips nothing.
  double u_skip = cap == 0 ? 0.0 : 2.0;
  auto update_ceiling = [&] {
    if (!(fb_ns > 0.0)) return;
    const SimTime top = out.front().due - in.now;
    u_skip = feedback_timer::uniform_ceiling(
        static_cast<double>(top.count_nanos()) / fb_ns, timer);
  };
  for (int i = 0; i < in.n; ++i) {
    if (i == in.skip) continue;
    double rate = in.rate_Bps;
    if (in.calc_Bps != nullptr) {
      rate = in.calc_Bps[i];
      if (!(rate < in.send_rate_Bps)) continue;  // ineligible (also filters +inf)
    }
    const double u = rng.uniform01();
    if (u > u_skip) continue;
    double x = in.x;
    if (in.calc_Bps != nullptr) {
      x = in.send_rate_Bps > 0.0 ? std::clamp(rate / in.send_rate_Bps, 0.0, 1.0)
                                 : 1.0;
    }
    const FeedbackCandidate c{
        in.now + in.fb_deadline * feedback_timer::from_uniform(u, x, timer), i,
        rate};
    if (out.size() < cap) {
      out.push_back(c);
      std::push_heap(out.begin(), out.end(), heap_before);
      if (out.size() == cap) update_ceiling();
    } else if (heap_before(c, out.front())) {
      std::pop_heap(out.begin(), out.end(), heap_before);
      out.back() = c;
      std::push_heap(out.begin(), out.end(), heap_before);
      update_ceiling();
    }
  }
  std::sort(out.begin(), out.end(), heap_before);
}

void ModeledReceiverBlock::schedule_next_candidate() {
  if (next_candidate_ >= candidates_.size()) return;
  const SimTime due =
      std::max(sim_.now(), candidates_[next_candidate_].due);
  cand_timer_ = sim_.at(due, [this] { fire_candidate(); });
}

void ModeledReceiverBlock::fire_candidate() {
  if (next_candidate_ >= candidates_.size()) return;
  const FeedbackCandidate c = candidates_[next_candidate_++];
  const SimTime now = sim_.now();
  // A receiver promoted to CLR mid-round reports periodically instead.
  if (joined_ && c.idx != clr_idx_ && !suppressed(c, now)) {
    send_feedback(c.idx);
  }
  schedule_next_candidate();
}

bool ModeledReceiverBlock::suppressed(const FeedbackCandidate& c,
                                      SimTime now) const {
  if (supp_rate_Bps_ < 0.0) return false;
  // §2.5.2 at fire time: within a round the echoed rate r only decreases,
  // and the cancellation condition own >= r * (1 - delta) is monotone in r,
  // so evaluating against the latest observed echo is equivalent to the
  // full tier's cancel-on-first-satisfying-packet.
  double own;
  if (slowstart_round_) {
    // §2.6: loss reports can only be suppressed by other loss reports.
    if (loss_.has_loss() && !supp_has_loss_) return false;
    if (!loss_.has_loss() && supp_has_loss_) return true;
    own = recv_rate_.rate_Bps(now);
  } else {
    own = calc_rate_Bps(c.idx);
  }
  return supp_rate_Bps_ - own <= cfg_.delta * supp_rate_Bps_;
}

void ModeledReceiverBlock::send_feedback(int idx) {
  if (!joined_) return;
  const SimTime now = sim_.now();
  const auto i = static_cast<std::size_t>(idx);

  auto fb = sim_.make_packet();
  fb->src = tap_;
  fb->dst = session_.source();
  fb->sport = session_.data_port();
  fb->dport = session_.control_port();
  fb->size_bytes = cfg_.feedback_bytes;

  TfmccFeedbackHeader h;
  h.receiver = bcfg_.base_id + idx;
  h.round = round_;
  const double calc = calc_rate_Bps(idx);
  h.calc_rate_Bps = std::isfinite(calc) ? calc : -1.0;  // sentinel, as full tier
  h.recv_rate_Bps = recv_rate_.rate_Bps(now);
  h.loss_event_rate = loss_.loss_event_rate();
  h.has_rtt = (flags_[i] & ModeledRxInfo::kHasRtt) != 0;
  h.rtt = rtt_[i];
  h.has_loss = loss_.has_loss();
  h.ts = now;
  h.echo_ts = last_data_send_ts_;
  // Reduce the echo hold by the virtual detour so the sender-side sample
  // comes out at the modeled path RTT (tap RTT + 2 * extra_owd).
  SimTime hold = last_data_arrival_.is_infinite()
                     ? SimTime::zero()
                     : now - last_data_arrival_;
  hold -= extra_owd_[i] * 2.0;
  h.echo_delay = std::max(SimTime::zero(), hold);
  fb->header = h;

  session_.topology().node(tap_).send(std::move(fb));
  flags_[i] |= ModeledRxInfo::kReported;
  ++feedback_sent_;
}

}  // namespace tfmcc
