#include "tfmcc/receiver_block.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/feedback_model.hpp"
#include "tfmcc/feedback_timer.hpp"

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
      core_{cfg} {
  const auto n = static_cast<std::size_t>(bcfg_.count);
  reset_receivers();
  extra_owd_.resize(n);
  ps_scratch_.resize(n);
  calc_scratch_.resize(n);
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

void ModeledReceiverBlock::reset_receivers() {
  const auto n = static_cast<std::size_t>(bcfg_.count);
  rtt_.assign(n, kInitialRtt);
  flags_.assign(n, 0);
  rtt_sum_s_ = kInitialRtt.to_seconds() * static_cast<double>(bcfg_.count);
  with_rtt_ = 0;
}

void ModeledReceiverBlock::join() {
  if (joined_) return;
  // A rejoin starts a fresh membership, as for the full receiver: the
  // sequence space, loss history, RTT estimates and flags of the previous
  // one must not leak in (the seqno gap would read as a loss burst).
  if (ever_left_) {
    core_ = ReceiverCore{cfg_};
    reset_receivers();
  }
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
    session_.send_report(tap_, kFeedbackPacketBytes,
                         core_.leave_report(bcfg_.base_id + i, now));
    ++feedback_sent_;
  }
  session_.remove_modeled(bcfg_.count);
  session_.leave(tap_);
  session_.topology().node(tap_).detach_agent(session_.data_port());
  joined_ = false;
  ever_left_ = true;
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
    // biased-early; T = kRoundRttMult RTTs, suppression signal one RTT
    // behind).  4x that expectation plus slack is a generous tail allowance.
    const double em = feedback_model::expected_messages(
        bcfg_.count, kRoundRttMult, 1.0, 0.0, cfg_.timer);
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

void ModeledReceiverBlock::handle_packet(const Packet& p) {
  const auto* data = p.tfmcc_data();
  if (data == nullptr) return;
  const TfmccDataHeader& h = *data;
  const SimTime now = sim_.now();
  // Clock-sync RTT initialisation (§2.4.1), per modeled receiver: the tap's
  // estimate plus each receiver's virtual access detour.
  if (const auto init = core_.clock_sync_rtt(h, now, cfg_)) {
    for (int i = 0; i < bcfg_.count; ++i) {
      set_rtt(i, *init + extra_owd_[static_cast<std::size_t>(i)] * 2.0);
    }
  }
  if (!core_.on_data(h, p.size_bytes, now, representative_rtt(), cfg_)) return;

  process_echo(h, now);
  update_clr_status(h);

  if (h.round != core_.round) on_new_round(h, now);
  supp_.observe(h);
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
    const SimTime prior = representative_rtt();
    set_rtt(idx, sample);
    // Appendix A/B, once per block: the shared history was aggregated (and
    // its first interval synthesised) with the block's prior estimate;
    // remodel it with a measured one.
    if (!core_.rtt_measured) {
      core_.on_first_rtt(representative_rtt(), sample, prior);
    }
  } else {
    const double alpha =
        idx == clr_idx_ ? kRttEwmaClr : kRttEwmaNonClr;
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

void ModeledReceiverBlock::on_new_round(const TfmccDataHeader& h,
                                        SimTime now) {
  core_.round = h.round;
  supp_ = SuppressionEcho{};  // handle_packet() then observes this header
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
    in.rate_Bps = core_.recv_rate.rate_Bps(now);
    if (!core_.eligible(true, in.rate_Bps, in.send_rate_Bps)) return;
    in.x = bias_ratio(in.rate_Bps, in.send_rate_Bps);
  } else {
    // Steady state: one batched equation evaluation over the contiguous RTT
    // array (shared p) decides each receiver's eligibility.
    const double p = core_.loss.loss_event_rate();
    if (p <= 0.0) return;  // calc rate infinite: nothing useful to report
    std::fill(ps_scratch_.begin(), ps_scratch_.end(), p);
    cfg_.equation->throughput_batch(kDataPacketBytes, rtt_.data(),
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
      // ReceiverCore::eligible's steady-state arm (also filters +inf).
      if (!(rate < in.send_rate_Bps)) continue;
    }
    const double u = rng.uniform01();
    if (u > u_skip) continue;
    const double x =
        in.calc_Bps != nullptr ? bias_ratio(rate, in.send_rate_Bps) : in.x;
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
  // §2.5.2 is evaluated here, at fire time, against the latest echo of the
  // round; the full tier cancels on the first packet whose echo satisfies
  // it.  The two agree when the echoed rate only falls within the round
  // (the rule is monotone in it) and the receiver's own rate is fixed over
  // the round: a loss event or a moving receive rate between an echo and
  // the fire time can make them differ.
  if (joined_ && c.idx != clr_idx_ &&
      !core_.suppressed(supp_, now, rtt_[static_cast<std::size_t>(c.idx)],
                        cfg_)) {
    send_feedback(c.idx);
  }
  schedule_next_candidate();
}

void ModeledReceiverBlock::send_feedback(int idx) {
  if (!joined_) return;
  const auto i = static_cast<std::size_t>(idx);
  // The echo hold shrinks by the virtual detour so the sender-side sample
  // comes out at the modeled path RTT (tap RTT + 2 * extra_owd).
  session_.send_report(
      tap_, kFeedbackPacketBytes,
      core_.report(bcfg_.base_id + idx, rtt_[i],
                   (flags_[i] & ModeledRxInfo::kHasRtt) != 0, sim_.now(),
                   extra_owd_[i] * 2.0, cfg_));
  flags_[i] |= ModeledRxInfo::kReported;
  ++feedback_sent_;
}

}  // namespace tfmcc
