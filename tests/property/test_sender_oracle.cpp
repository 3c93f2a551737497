// Oracle test for the sender core: random report sequences go to
// SenderCore and to a direct reference of the paper's sender rules written
// here (§2.2 CLR selection and rate update with the rate floor, §2.4.2 echo
// priority, §2.5 round minimum and round length, §2.6 slowstart, §4.2 CLR
// loss, Appendix C switch-back).  The sequences mix rates below and above
// the floor, reports with and without an RTT, stale and current rounds,
// leaves, CLR timeouts and slowstart exits.  After every step both must
// agree on the CLR, the sending rate and the decision; every data packet
// must carry the same echo choice and suppression state.
//
// The reference keeps its receivers in arrival order and states the
// lowest-id tie-break of the CLR pick explicitly; it writes the CLR-switch
// rule (a report takes over only below both the sending rate and the CLR's
// rate) as two comparisons.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "tfmcc/sender_core.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

using D = SenderDecision;

class ReferenceSender {
 public:
  explicit ReferenceSender(const TfmccConfig& cfg)
      : equation_{cfg.equation}, remember_{cfg.remember_previous_clr} {}

  // State the oracle compares.
  double rate = static_cast<double>(kDataPacketBytes) / kInitialRtt.to_seconds();
  bool slowstart = true;
  std::int32_t clr = kInvalidReceiver;
  double clr_rate = 0.0;
  std::int32_t round = 0;
  SimTime round_T{};
  std::int64_t sent = 0;
  std::int64_t reports = 0;
  std::size_t clr_changes = 0;
  unsigned events = 0;  // SenderDecision kinds of the last call

  // Coverage counters.
  int echo_cap_hits = 0;
  int floor_reports_kept_out = 0;

  int receivers() const { return static_cast<int>(rxs_.size()); }
  int receivers_with_rtt() const {
    return static_cast<int>(std::count_if(rxs_.begin(), rxs_.end(),
                                          [](const Rx& r) { return r.has_rtt; }));
  }

  void tick(SimTime now) {
    events = 0;
    if (slowstart && round_min_recv_ > 0.0) {
      ss_base_ = rate;
      ss_target_ = std::max(kSlowstartMult * round_min_recv_, rate);
      ss_commit_ = now;
    }
    round_min_recv_ = -1.0;
    ++round;
    supp_rate_ = -1.0;
    supp_loss_ = false;
    const double pkt_gap =
        static_cast<double>(kDataPacketBytes) / std::max(rate, 1.0);
    round_T = std::max(kRoundRttMult * max_rtt(),
                       SimTime::seconds((kLowRateGuard + 1) * pkt_gap));
    if (clr != kInvalidReceiver && now - clr_last_ > kClrTimeoutMult * round_T) {
      lose_clr(now);
    }
  }

  TfmccDataHeader send(SimTime now) {
    if (slowstart && ss_target_ > 0.0) {
      const double frac = std::min(
          1.0, (now - ss_commit_) / std::max(max_rtt(), SimTime::millis(1)));
      rate = ss_base_ + (ss_target_ - ss_base_) * frac;
    }
    TfmccDataHeader h;
    h.seqno = sent++;
    h.send_ts = now;
    h.send_rate_Bps = rate;
    h.clr = clr;
    h.slowstart = slowstart;
    h.round = round;
    h.fb_deadline = round_T;
    h.supp_rate_Bps = supp_rate_;
    h.supp_has_loss = supp_loss_;
    if (!echoes_.empty()) {
      // Lowest (priority, rate); the earliest queued wins a tie.
      std::size_t best = 0;
      for (std::size_t i = 1; i < echoes_.size(); ++i) {
        if (echoes_[i].prio < echoes_[best].prio ||
            (echoes_[i].prio == echoes_[best].prio &&
             echoes_[i].rate < echoes_[best].rate)) {
          best = i;
        }
      }
      h.echo = {echoes_[best].id, echoes_[best].ts, now - echoes_[best].arrival};
      echoes_.erase(echoes_.begin() + static_cast<std::ptrdiff_t>(best));
    } else if (const Rx* c = find(clr)) {
      h.echo = {clr, c->ts, now - c->arrival};
    }
    return h;
  }

  void report(SimTime now, const TfmccFeedbackHeader& f) {
    events = 0;
    ++reports;
    if (f.leaving) {
      rxs_.erase(std::remove_if(rxs_.begin(), rxs_.end(),
                                [&](const Rx& r) { return r.id == f.receiver; }),
                 rxs_.end());
      echoes_.erase(std::remove_if(echoes_.begin(), echoes_.end(),
                                   [&](const Echo& e) { return e.id == f.receiver; }),
                    echoes_.end());
      if (f.receiver == clr) lose_clr(now);
      if (f.receiver == prev_) prev_ = kInvalidReceiver;
      return;
    }

    SimTime measured = SimTime::zero();
    if (f.echo_ts > SimTime::zero() && now - f.echo_ts - f.echo_delay > SimTime::zero()) {
      measured = now - f.echo_ts - f.echo_delay;
    }
    double eff = f.calc_rate_Bps;
    if (!f.has_rtt && f.loss_event_rate > 0.0 && measured > SimTime::zero()) {
      eff = equation_->throughput_Bps(kDataPacketBytes, measured,
                                      f.loss_event_rate);
    }

    // §2.2 with the floor rule: below the sending rate AND the CLR's rate.
    const bool takes_over =
        !slowstart && eff >= 0.0 && f.receiver != clr &&
        (clr == kInvalidReceiver || (eff < rate && eff < clr_rate));
    if (!slowstart && clr != kInvalidReceiver && f.receiver != clr &&
        eff >= 0.0 && eff < rate && !(eff < clr_rate)) {
      ++floor_reports_kept_out;
    }

    auto it = std::find_if(rxs_.begin(), rxs_.end(),
                           [&](const Rx& r) { return r.id == f.receiver; });
    if (it == rxs_.end()) it = rxs_.insert(rxs_.end(), Rx{f.receiver});
    Rx& rx = *it;
    rx.rate = eff;
    rx.recv = f.recv_rate_Bps;
    rx.has_rtt = f.has_rtt;
    rx.rtt = f.has_rtt ? f.rtt
                       : (measured > SimTime::zero() ? measured : kInitialRtt);
    rx.ts = f.ts;
    rx.arrival = now;

    const int prio = takes_over ? 0 : !f.has_rtt ? 1 : f.receiver != clr ? 2 : 3;
    queue_echo({prio, eff < 0.0 ? f.recv_rate_Bps : eff, f.receiver, f.ts, now});

    if (f.round == round) {
      const double v = slowstart ? f.recv_rate_Bps : eff;
      if (v >= 0.0) {
        // In slowstart a loss report beats a no-loss one (§2.6).
        bool lower = v < supp_rate_;
        if (slowstart && f.has_loss != supp_loss_) lower = f.has_loss;
        if (supp_rate_ < 0.0 || lower) {
          supp_rate_ = v;
          supp_loss_ = f.has_loss;
        }
      }
    }

    if (slowstart) {
      if (f.has_loss) {
        slowstart = false;
        ss_target_ = -1.0;
        make_clr(now, f.receiver, eff >= 0.0 ? eff : rate, false);
        if (eff >= 0.0) rate = std::max(std::min(rate, eff), floor());
        events |= D::kSlowstartExited | D::kClrSwitched;
      } else if (f.recv_rate_Bps > 0.0) {
        round_min_recv_ = round_min_recv_ < 0.0
                              ? f.recv_rate_Bps
                              : std::min(round_min_recv_, f.recv_rate_Bps);
      }
      return;
    }
    if (clr == kInvalidReceiver) {
      if (eff >= 0.0) {
        make_clr(now, f.receiver, eff, false);
        rate = std::max(std::min(rate, eff), floor());
        events |= D::kClrSwitched;
      }
    } else if (f.receiver == clr) {
      clr_report(now, rx, eff);
    } else if (takes_over) {
      make_clr(now, f.receiver, eff, false);
      rate = std::max(eff, floor());
      events |= D::kClrSwitched;
    }
  }

 private:
  struct Rx {
    std::int32_t id{kInvalidReceiver};
    double rate{-1.0};
    double recv{0.0};
    bool has_rtt{false};
    SimTime rtt{};
    SimTime ts{};
    SimTime arrival{};
  };
  struct Echo {
    int prio;
    double rate;
    std::int32_t id;
    SimTime ts;
    SimTime arrival;
  };

  static double floor() {
    return static_cast<double>(kDataPacketBytes) / kInitialRtt.to_seconds() * 0.5;
  }

  const Rx* find(std::int32_t id) const {
    for (const Rx& r : rxs_) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }

  SimTime max_rtt() const {
    SimTime mx = SimTime::zero();
    bool unmeasured = rxs_.empty();
    for (const Rx& r : rxs_) {
      if (r.has_rtt) {
        mx = std::max(mx, r.rtt);
      } else {
        unmeasured = true;
      }
    }
    return unmeasured ? std::max(mx, kInitialRtt) : mx;
  }

  void queue_echo(const Echo& e) {
    for (Echo& q : echoes_) {
      if (q.id == e.id) {
        q = e;
        return;
      }
    }
    if (echoes_.size() < 64) {
      echoes_.push_back(e);
      return;
    }
    ++echo_cap_hits;
    std::size_t worst = 0;
    for (std::size_t i = 1; i < echoes_.size(); ++i) {
      if (echoes_[i].prio > echoes_[worst].prio ||
          (echoes_[i].prio == echoes_[worst].prio &&
           echoes_[i].rate > echoes_[worst].rate)) {
        worst = i;
      }
    }
    if (e.prio < echoes_[worst].prio ||
        (e.prio == echoes_[worst].prio && e.rate < echoes_[worst].rate)) {
      echoes_[worst] = e;
    }
  }

  void make_clr(SimTime now, std::int32_t id, double r, bool ramp) {
    if (remember_ && clr != kInvalidReceiver && clr != id) {
      prev_ = clr;
      prev_rate_ = clr_rate;
      prev_since_ = now;
    }
    clr = id;
    clr_rate = r;
    clr_last_ = now;
    ramp_ = ramp;
    const Rx* rx = find(id);
    clr_rtt_ = rx != nullptr && rx->has_rtt ? rx->rtt : kInitialRtt;
    ++clr_changes;
  }

  void lose_clr(SimTime now) {
    const std::int32_t lost = clr;
    rxs_.erase(std::remove_if(rxs_.begin(), rxs_.end(),
                              [&](const Rx& r) { return r.id == lost; }),
               rxs_.end());
    clr = kInvalidReceiver;
    events |= D::kClrLost;
    // The lowest known rate takes over; equal rates go to the lowest id.
    const Rx* best = nullptr;
    for (const Rx& r : rxs_) {
      if (r.rate < 0.0) continue;
      if (best == nullptr || r.rate < best->rate ||
          (r.rate == best->rate && r.id < best->id)) {
        best = &r;
      }
    }
    if (best != nullptr) {
      make_clr(now, best->id, best->rate, true);
      events |= D::kClrSwitched;
    } else {
      slowstart = true;
      ss_target_ = -1.0;
      round_min_recv_ = -1.0;
      events |= D::kSlowstartReentered;
    }
  }

  void clr_report(SimTime now, const Rx& rx, double eff) {
    clr_last_ = now;
    if (rx.has_rtt) clr_rtt_ = rx.rtt;
    if (eff < 0.0) return;
    clr_rate = eff;
    if (remember_ && prev_ != kInvalidReceiver && prev_ != rx.id &&
        now - prev_since_ <= kPreviousClrHold && eff > prev_rate_ &&
        find(prev_) != nullptr) {
      make_clr(now, prev_, std::min(prev_rate_, rate), false);
      prev_ = kInvalidReceiver;
      events |= D::kClrSwitchedBack;
      return;
    }
    double next = eff;
    if (eff <= rate) {
      ramp_ = false;
    } else if (ramp_) {
      const double step = kIncreaseLimitPkts *
                          static_cast<double>(kDataPacketBytes) /
                          std::max(clr_rtt_.to_seconds(), 1e-3);
      next = std::min(eff, rate + step);
      if (next >= eff) ramp_ = false;
    }
    if (rx.recv > 0.0) next = std::min(next, kRecvRateCapMult * rx.recv);
    rate = std::max(next, floor());
    events |= D::kClrRateUpdated;
  }

  const EquationBackend* equation_;
  bool remember_;
  std::vector<Rx> rxs_;
  std::vector<Echo> echoes_;
  double ss_target_{-1.0};
  double ss_base_{0.0};
  SimTime ss_commit_{};
  double round_min_recv_{-1.0};
  double supp_rate_{-1.0};
  bool supp_loss_{false};
  SimTime clr_last_{};
  SimTime clr_rtt_{};
  bool ramp_{false};
  std::int32_t prev_{kInvalidReceiver};
  double prev_rate_{0.0};
  SimTime prev_since_{};
};

::testing::AssertionResult agree(const SenderCore& core, D decision,
                                 const ReferenceSender& ref) {
  std::ostringstream diff;
  auto cmp = [&](const char* what, auto a, auto b) {
    if (!(a == b)) diff << ' ' << what << ": core " << a << ", reference " << b;
  };
  cmp("clr", core.clr(), ref.clr);
  cmp("rate", core.rate_Bps(), ref.rate);
  cmp("clr rate", core.clr_rate_Bps(), ref.clr_rate);
  cmp("decision", decision.kinds, ref.events);
  cmp("slowstart", core.in_slowstart(), ref.slowstart);
  cmp("round", core.round(), ref.round);
  cmp("round T ns", core.round_duration().count_nanos(),
      ref.round_T.count_nanos());
  cmp("clr changes", core.clr_history().size(), ref.clr_changes);
  cmp("receivers", core.known_receivers(), ref.receivers());
  cmp("with rtt", core.known_receivers_with_rtt(), ref.receivers_with_rtt());
  cmp("reports", core.feedback_received(), ref.reports);
  if (diff.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << diff.str();
}

::testing::AssertionResult same_header(const TfmccDataHeader& a,
                                       const TfmccDataHeader& b) {
  if (a.seqno == b.seqno && a.send_rate_Bps == b.send_rate_Bps &&
      a.clr == b.clr && a.slowstart == b.slowstart && a.round == b.round &&
      a.fb_deadline == b.fb_deadline && a.supp_rate_Bps == b.supp_rate_Bps &&
      a.supp_has_loss == b.supp_has_loss && a.echo.receiver == b.echo.receiver &&
      a.echo.ts == b.echo.ts && a.echo.delay == b.echo.delay) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "core echo " << a.echo.receiver << " supp " << a.supp_rate_Bps
         << ", reference echo " << b.echo.receiver << " supp "
         << b.supp_rate_Bps;
}

double log_uniform(Rng& gen, double lo, double hi) {
  return std::exp(gen.uniform(std::log(lo), std::log(hi)));
}

/// A random report; a third of the rates sit below the floor, and one in
/// five falls between the CLR's rate and a sending rate above it.
TfmccFeedbackHeader random_report(Rng& gen, const SenderCore& core,
                                  int n_receivers, SimTime now) {
  TfmccFeedbackHeader f;
  f.receiver = core.clr() != kInvalidReceiver && gen.bernoulli(0.3)
                   ? core.clr()
                   : static_cast<std::int32_t>(gen.uniform_int(0, n_receivers - 1));
  const double u = gen.uniform01();
  if (u < 0.1) {
    f.calc_rate_Bps = -1.0;  // no loss yet: no estimate
  } else if (u < 0.3 && core.clr_rate_Bps() < core.rate_Bps()) {
    f.calc_rate_Bps = gen.uniform(core.clr_rate_Bps(), core.rate_Bps());
  } else if (u < 0.6) {
    f.calc_rate_Bps = gen.uniform(100.0, kMinRateBps);
  } else {
    f.calc_rate_Bps = log_uniform(gen, 0.8 * kMinRateBps, 3e5);
  }
  f.recv_rate_Bps = gen.bernoulli(0.1) ? 0.0 : log_uniform(gen, 200.0, 4e5);
  f.loss_event_rate = gen.bernoulli(0.2) ? 0.0 : gen.uniform(0.001, 0.3);
  f.has_rtt = gen.bernoulli(0.6);
  f.rtt = SimTime::millis(gen.uniform_int(5, 800));
  f.has_loss = gen.bernoulli(0.4);
  f.round = core.round() - (gen.bernoulli(0.25)
                                ? static_cast<std::int32_t>(gen.uniform_int(1, 3))
                                : 0);
  f.ts = now;
  if (gen.bernoulli(0.7)) {
    f.echo_ts = now - SimTime::millis(gen.uniform_int(0, 1500));
    f.echo_delay = SimTime::millis(gen.uniform_int(0, 300));
  }
  return f;
}

struct Coverage {
  int switches = 0, switch_backs = 0, timeouts = 0, clr_leaves = 0,
      slowstart_exits = 0, slowstart_reentries = 0, stale_reports = 0,
      no_rtt_reports = 0, floor_kept_out = 0, echo_cap_hits = 0;
};

void run_sequence(std::uint64_t seed, Coverage& cov) {
  Rng gen{seed};
  TfmccConfig cfg;
  cfg.remember_previous_clr = gen.bernoulli(0.5);
  SenderCore core{cfg};
  ReferenceSender ref{cfg};
  static constexpr int kPopulations[] = {1, 3, 12, 90};
  const int n_rx = kPopulations[gen.uniform_int(0, 3)];

  SimTime now = SimTime::zero();
  D d = core.on_round(now);
  ref.tick(now);
  ASSERT_TRUE(agree(core, d, ref)) << "seed " << seed << " start";

  for (int step = 0; step < 400; ++step) {
    now += SimTime::millis(gen.uniform_int(0, 200));
    const double u = gen.uniform01();
    const char* what;
    if (u < 0.5) {
      what = "report";
      const TfmccFeedbackHeader f = random_report(gen, core, n_rx, now);
      cov.stale_reports += f.round != core.round();
      cov.no_rtt_reports += !f.has_rtt;
      d = core.on_feedback(now, f);
      ref.report(now, f);
    } else if (u < 0.6) {
      what = "leave";
      TfmccFeedbackHeader f;
      f.receiver = core.clr() != kInvalidReceiver && gen.bernoulli(0.4)
                       ? core.clr()
                       : static_cast<std::int32_t>(gen.uniform_int(0, n_rx - 1));
      f.leaving = true;
      f.ts = now;
      cov.clr_leaves += f.receiver == core.clr();
      d = core.on_feedback(now, f);
      ref.report(now, f);
    } else if (u < 0.62) {
      what = "burst";  // every receiver reports before the next packet
      for (int i = 0; i < n_rx; ++i) {
        TfmccFeedbackHeader f = random_report(gen, core, n_rx, now);
        f.receiver = i;
        d = core.on_feedback(now, f);
        ref.report(now, f);
        ASSERT_TRUE(agree(core, d, ref))
            << "seed " << seed << " step " << step << " burst " << i;
      }
    } else if (u < 0.72) {
      what = "round";
      d = core.on_round(now);
      ref.tick(now);
    } else if (u < 0.76) {
      what = "silence";  // long enough for the CLR timeout
      now += kClrTimeoutMult * core.round_duration() + SimTime::millis(1);
      d = core.on_round(now);
      ref.tick(now);
    } else {
      what = "send";
      const TfmccDataHeader a = core.next_data(now);
      const TfmccDataHeader b = ref.send(now);
      ASSERT_TRUE(same_header(a, b)) << "seed " << seed << " step " << step;
      d = {};
      ref.events = 0;
    }
    ASSERT_TRUE(agree(core, d, ref))
        << "seed " << seed << " step " << step << " (" << what << ")";
    cov.switches += d.has(D::kClrSwitched);
    cov.switch_backs += d.has(D::kClrSwitchedBack);
    cov.timeouts += d.has(D::kClrLost) && std::string{what} != "leave";
    cov.slowstart_exits += d.has(D::kSlowstartExited);
    cov.slowstart_reentries += d.has(D::kSlowstartReentered);
  }
  cov.floor_kept_out += ref.floor_reports_kept_out;
  cov.echo_cap_hits += ref.echo_cap_hits;
}

TEST(SenderOracle, CoreMatchesTheReferenceOnRandomReportSequences) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    run_sequence(seed, cov);
    if (HasFatalFailure()) return;
  }
  // The sequences must reach every rule they claim to cover.
  EXPECT_GT(cov.switches, 0);
  EXPECT_GT(cov.switch_backs, 0);
  EXPECT_GT(cov.timeouts, 0);
  EXPECT_GT(cov.clr_leaves, 0);
  EXPECT_GT(cov.slowstart_exits, 0);
  EXPECT_GT(cov.slowstart_reentries, 0);
  EXPECT_GT(cov.stale_reports, 0);
  EXPECT_GT(cov.no_rtt_reports, 0);
  EXPECT_GT(cov.floor_kept_out, 0);
  EXPECT_GT(cov.echo_cap_hits, 0);
}

}  // namespace
}  // namespace tfmcc
