#include "tfmcc/receiver_block.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

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
      gen_{rng.engine_copy()},
      core_{cfg} {
  reset_receivers();
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
      std::max<std::int64_t>(0, extra_owd(i).count_nanos() / 1000));
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
    cand_cap_ = std::clamp(k, 8, kMaxCandidates);
  }
  return cand_cap_;
}

SimTime ModeledReceiverBlock::representative_rtt() const {
  return SimTime::seconds(rtt_sum_s_ / static_cast<double>(bcfg_.count));
}

SimTime ModeledReceiverBlock::extra_owd(int idx) const {
  // Stratified evenly over the configured span: deterministic coverage of
  // the RTT range beats sampling it (the modeled tier aggregates, it does
  // not replicate one random draw).
  const int n = bcfg_.count;
  const double frac =
      n > 1 ? static_cast<double>(idx) / static_cast<double>(n - 1) : 0.0;
  return bcfg_.extra_owd_min +
         (bcfg_.extra_owd_max - bcfg_.extra_owd_min) * frac;
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
      set_rtt(i, *init + extra_owd(i) * 2.0);
    }
  }
  // The meter counts packets of the one TFMCC data size.
  assert(p.size_bytes == kDataPacketBytes);
  if (!core_.on_data(h, now, representative_rtt(), cfg_)) return;

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
  const SimTime sample = tap_sample + extra_owd(idx) * 2.0;

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
    // Each receiver's own rate decides its eligibility and ratio.  The
    // float equation is non-increasing in the RTT, so the drawer finds the
    // least eligible RTT once and evaluates a rate only for a draw that can
    // enter the short-list (see least_eligible_rtt).
    in.p = core_.loss.loss_event_rate();
    if (in.p <= 0.0) return;  // calc rate infinite: nothing useful to report
    in.equation = cfg_.equation;
  }
  CandidateDrawer drawer{in, cfg_.timer, candidates_};
  drawer.draw(bcfg_.count, h.slowstart ? nullptr : rtt_.data(), gen_);
  drawer.finish();
  schedule_next_candidate();
}

namespace {

// Bounded max-heap order on (due, idx): only the earliest `cap` timers can
// possibly report (everything later is suppressed by them or by the full
// tier), so the other n - cap receivers never materialise as events.  A
// lambda, not a function: the heap algorithms then see its own type, not a
// function pointer, and inline the comparison.
constexpr auto heap_before = [](const FeedbackCandidate& a,
                                const FeedbackCandidate& b) {
  return a.due < b.due || (a.due == b.due && a.idx < b.idx);
};

}  // namespace

std::optional<SimTime> least_eligible_rtt(const EquationBackend& equation,
                                          double p, double send_rate_Bps) {
  const auto eligible = [&](std::int64_t rtt_ns) {
    return equation.throughput_Bps(kDataPacketBytes, SimTime::nanos(rtt_ns),
                                   p) < send_rate_Bps;
  };
  // Eligibility only grows with the RTT: bisect between an ineligible `lo`
  // and an eligible `hi`.
  std::int64_t lo = 0;
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  if (!eligible(hi)) return std::nullopt;
  if (eligible(lo)) return SimTime::zero();
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (eligible(mid) ? hi : lo) = mid;
  }
  return SimTime::nanos(hi);
}

CandidateDrawer::CandidateDrawer(const RoundDrawInput& in,
                                 const FeedbackTimerConfig& timer,
                                 std::vector<FeedbackCandidate>& out)
    : in_{in},
      timer_{timer},
      out_{out},
      cap_{static_cast<std::size_t>(std::max(0, in.cap))},
      fb_ns_{static_cast<double>(in.fb_deadline.count_nanos())} {
  out_.clear();
  if (in_.equation == nullptr) {
    min_bias_ = feedback_timer::bias(in_.x, timer_);
  } else {
    rtt_floor_ = least_eligible_rtt(*in_.equation, in_.p, in_.send_rate_Bps);
  }
}

void CandidateDrawer::draw(int count, const SimTime* rtt, Mt19937_64& gen) {
  if (rtt != nullptr && !rtt_floor_) {  // no receiver is eligible
    next_ += count;
    return;
  }
  for (int done = 0; done < count; done += kChunk) {
    draw_chunk(next_, std::min(kChunk, count - done),
               rtt != nullptr ? rtt + done : nullptr, gen);
  }
}

void CandidateDrawer::draw_chunk(int first, int count, const SimTime* rtt,
                                 Mt19937_64& gen) {
  next_ = first + count;
  // The chunk's eligible receivers, as offsets from `first`: all but the
  // CLR in slowstart, and those at or above the least eligible RTT in
  // steady state.
  std::array<std::int32_t, kChunk> eligible;
  const int skip = in_.skip - first;
  int n = 0;
  if (rtt == nullptr) {
    const bool skips = skip >= 0 && skip < count;
    n = count - skips;
    for (int j = 0; j < n; ++j) {
      eligible[static_cast<std::size_t>(j)] = j + (skips && j >= skip);
    }
  } else {
    const std::int64_t floor = rtt_floor_->count_nanos();
    std::int64_t longest = 0;
    for (int k = 0; k < count; ++k) {
      const std::int64_t r = rtt[k].count_nanos();
      eligible[static_cast<std::size_t>(n)] = k;
      n += (k != skip) & (r >= floor);
      longest = std::max(longest, r);
    }
    if (n == 0) return;
    // A rate, and with it the ratio and the bias, only falls as the RTT
    // grows: at the chunk's longest RTT it bounds every eligible draw's bias
    // from below.
    min_bias_ = feedback_timer::bias(
        bias_ratio(in_.equation->throughput_Bps(
                       kDataPacketBytes, SimTime::nanos(longest), in_.p),
                   in_.send_rate_Bps),
        timer_);
  }
  // One engine scan per run of skipped draws: the scan stops only at a word
  // at or above the floor, and only an admitted draw touches the heap.
  // Draws come in index order, so a full heap admits only timers due
  // strictly before its top.  Every u = 1 - canonical(w) above `u_skip` is
  // due no earlier, so it is skipped before the timer transform; words
  // below the floor are such draws, decided without their conversion.
  double u_skip = skip_ceiling();
  std::uint64_t w_floor = Rng::uniform01_floor(u_skip);
  const double send_rate = in_.send_rate_Bps;
  const auto total = static_cast<std::size_t>(n);
  std::size_t pos = 0;
  std::uint64_t w = 0;
  while ((pos += gen.scan(total - pos, w_floor, w)) < total) {
    const int k = eligible[pos++];
    const double u = 1.0 - Rng::canonical(w);
    if (u > u_skip) continue;
    double rate = in_.rate_Bps;
    double x = in_.x;
    if (rtt != nullptr) {
      rate = in_.equation->throughput_Bps(kDataPacketBytes, rtt[k], in_.p);
      x = bias_ratio(rate, send_rate);
    }
    if (admit({in_.now + in_.fb_deadline *
                             feedback_timer::from_uniform(u, x, timer_),
               first + k, rate})) {
      u_skip = skip_ceiling();
      w_floor = Rng::uniform01_floor(u_skip);
    }
  }
}

double CandidateDrawer::skip_ceiling() const {
  // 2 (above any uniform01) skips nothing; a zero cap admits nothing.
  if (cap_ == 0) return 0.0;
  if (out_.size() < cap_ || !(fb_ns_ > 0.0)) return 2.0;
  const SimTime top = out_.front().due - in_.now;
  return feedback_timer::uniform_ceiling(
      static_cast<double>(top.count_nanos()) / fb_ns_, timer_, min_bias_);
}

bool CandidateDrawer::admit(const FeedbackCandidate& c) {
  if (out_.size() < cap_) {
    out_.push_back(c);
    std::push_heap(out_.begin(), out_.end(), heap_before);
    return out_.size() == cap_;
  }
  if (!heap_before(c, out_.front())) return false;
  std::pop_heap(out_.begin(), out_.end(), heap_before);
  out_.back() = c;
  std::push_heap(out_.begin(), out_.end(), heap_before);
  return true;
}

void CandidateDrawer::finish() {
  std::sort(out_.begin(), out_.end(), heap_before);
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
                   extra_owd(idx) * 2.0, cfg_));
  flags_[i] |= ModeledRxInfo::kReported;
  ++feedback_sent_;
}

}  // namespace tfmcc
