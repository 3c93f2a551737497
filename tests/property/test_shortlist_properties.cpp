// Oracle test for the modeled block's feedback short-list: draw_candidates
// (bounded heap plus the uniform-ceiling filter that skips timers which can
// no longer enter it) must select exactly what a naive "draw every timer,
// sort by (due, idx), take cap" selects, and leave the RNG at the same
// position, for random block shapes, eligibility masks, caps, deadlines,
// CLR skip indices and all four bias methods.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tfmcc/feedback_timer.hpp"
#include "tfmcc/receiver_block.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

std::vector<FeedbackCandidate> naive_shortlist(const RoundDrawInput& in,
                                               const FeedbackTimerConfig& cfg,
                                               Rng& rng) {
  std::vector<FeedbackCandidate> all;
  for (int i = 0; i < in.n; ++i) {
    if (i == in.skip) continue;
    double x = in.x;
    double rate = in.rate_Bps;
    if (in.calc_Bps != nullptr) {
      rate = in.calc_Bps[i];
      if (!(rate < in.send_rate_Bps)) continue;
      x = in.send_rate_Bps > 0.0
              ? std::clamp(rate / in.send_rate_Bps, 0.0, 1.0)
              : 1.0;
    }
    const double t = feedback_timer::draw(x, cfg, rng);
    all.push_back({in.now + in.fb_deadline * t, i, rate});
  }
  std::sort(all.begin(), all.end(),
            [](const FeedbackCandidate& a, const FeedbackCandidate& b) {
              return a.due < b.due || (a.due == b.due && a.idx < b.idx);
            });
  if (all.size() > static_cast<std::size_t>(std::max(0, in.cap))) {
    all.resize(static_cast<std::size_t>(std::max(0, in.cap)));
  }
  return all;
}

FeedbackTimerConfig random_timer(Rng& gen) {
  FeedbackTimerConfig cfg;
  cfg.method = static_cast<BiasMethod>(gen.uniform_int(0, 3));
  static constexpr double kN[] = {1.0, 2.0, 3.0, 100.0, 10000.0, 1e6};
  cfg.n_estimate = gen.bernoulli(0.7)
                       ? kN[gen.uniform_int(0, 5)]
                       : std::pow(10.0, gen.uniform(0.0, 7.0));
  // Mostly the paper's range, plus the edges that disable the filter
  // (zeta < 0, zeta >= 1) or zero the bias.
  static constexpr double kZeta[] = {0.0, 0.25, 0.5, 0.99, 1.0, 1.5, -0.3};
  cfg.zeta = gen.bernoulli(0.5) ? kZeta[gen.uniform_int(0, 6)]
                                : gen.uniform(0.0, 0.9);
  return cfg;
}

SimTime random_deadline(Rng& gen) {
  switch (gen.uniform_int(0, 4)) {
    case 0: return SimTime::zero();
    case 1: return SimTime::nanos(gen.uniform_int(1, 50));  // dense ties
    case 2: return SimTime::nanos(gen.uniform_int(1, 100'000));
    default: return SimTime::nanos(gen.uniform_int(1, 8'000'000'000));
  }
}

bool same(const FeedbackCandidate& a, const FeedbackCandidate& b) {
  return a.due == b.due && a.idx == b.idx &&
         std::memcmp(&a.calc_Bps, &b.calc_Bps, sizeof a.calc_Bps) == 0;
}

TEST(ShortlistProperties, FilteredSelectionEqualsNaiveSortAndRngAgrees) {
  Rng gen{2024};
  std::vector<double> calc;
  std::vector<FeedbackCandidate> got;
  int filled = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    RoundDrawInput in;
    in.n = static_cast<int>(gen.bernoulli(0.1) ? gen.uniform_int(0, 20000)
                                               : gen.uniform_int(0, 2000));
    in.skip = gen.bernoulli(0.5) && in.n > 0
                  ? static_cast<int>(gen.uniform_int(0, in.n - 1))
                  : -1;
    in.cap = static_cast<int>(gen.bernoulli(0.15)
                                  ? gen.uniform_int(in.n, in.n + 10)  // cap >= n
                                  : gen.uniform_int(1, 80));
    in.now = SimTime::nanos(gen.uniform_int(0, 1'000'000'000'000));
    in.fb_deadline = random_deadline(gen);
    in.send_rate_Bps = gen.bernoulli(0.05) ? 0.0 : gen.uniform(1e3, 1e7);
    if (gen.bernoulli(0.4)) {
      // Slowstart shape: one shared ratio and rate.
      in.x = gen.bernoulli(0.2) ? static_cast<double>(gen.uniform_int(0, 1))
                                : gen.uniform01();
      in.rate_Bps = gen.uniform(0.0, 1e7);
      in.calc_Bps = nullptr;
    } else {
      // Steady-state shape: per-receiver rates, some ineligible (at or
      // above the send rate, or +inf), with a random eligible share.
      const double eligible = gen.uniform01();
      calc.assign(static_cast<std::size_t>(in.n), 0.0);
      for (double& c : calc) {
        if (gen.bernoulli(eligible)) {
          c = in.send_rate_Bps * gen.uniform(0.0, 1.0);
        } else if (gen.bernoulli(0.2)) {
          c = std::numeric_limits<double>::infinity();
        } else {
          c = in.send_rate_Bps * gen.uniform(1.0, 3.0);
        }
      }
      in.calc_Bps = calc.data();
    }
    const FeedbackTimerConfig cfg = random_timer(gen);

    const std::uint64_t seed = gen.next_u64();
    Rng fast{seed};
    Rng naive{seed};
    draw_candidates(in, cfg, fast, got);
    const auto want = naive_shortlist(in, cfg, naive);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_TRUE(same(got[k], want[k]))
          << "trial " << trial << " rank " << k << ": got idx " << got[k].idx
          << " due " << got[k].due.count_nanos() << ", want idx "
          << want[k].idx << " due " << want[k].due.count_nanos();
    }
    ASSERT_EQ(fast.next_u64(), naive.next_u64()) << "trial " << trial;
    filled += got.size() == static_cast<std::size_t>(in.cap);
  }
  // Most trials overflow the short-list, so the filter was exercised.
  EXPECT_GT(filled, 1500);
}

TEST(ShortlistProperties, UniformCeilingIsConservative) {
  // Every u above the ceiling of t yields a timer >= t, for any x.
  Rng gen{77};
  for (int trial = 0; trial < 200000; ++trial) {
    const FeedbackTimerConfig cfg = random_timer(gen);
    const double t = gen.bernoulli(0.1) ? 0.0 : gen.uniform01();
    const double ceiling = feedback_timer::uniform_ceiling(t, cfg);
    if (ceiling >= 1.0) continue;
    const double u = gen.uniform(ceiling, 1.0);
    if (!(u > ceiling)) continue;
    const double x = gen.uniform01();
    ASSERT_GE(feedback_timer::from_uniform(u, x, cfg), t)
        << "trial " << trial << " u=" << u << " ceiling=" << ceiling;
  }
}

TEST(ShortlistProperties, ModifiedNAndDegenerateConfigsAreUnfiltered) {
  FeedbackTimerConfig cfg;
  cfg.method = BiasMethod::kModifiedN;
  EXPECT_GT(feedback_timer::uniform_ceiling(0.1, cfg), 1.0);
  cfg.method = BiasMethod::kOffset;
  cfg.zeta = 1.0;  // c = 0: the timer no longer depends on u
  EXPECT_GT(feedback_timer::uniform_ceiling(0.1, cfg), 1.0);
  cfg.zeta = -0.1;  // negative offset breaks the lower bound
  EXPECT_GT(feedback_timer::uniform_ceiling(0.1, cfg), 1.0);
  cfg.method = BiasMethod::kUnbiased;
  cfg.n_estimate = 1.0;
  EXPECT_GT(feedback_timer::uniform_ceiling(0.1, cfg), 1.0);
}

}  // namespace
}  // namespace tfmcc
