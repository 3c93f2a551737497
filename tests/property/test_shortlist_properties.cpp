// Oracle test for the modeled block's feedback short-list: CandidateDrawer
// (bounded heap plus the uniform-ceiling filter that skips timers which can
// no longer enter it, fed the block in chunks) must select exactly what a
// naive "draw every timer, sort by (due, idx), take cap" selects, and leave
// the RNG at the same position, for random block shapes, chunkings,
// eligibility masks, caps, deadlines, CLR skip indices and all four bias
// methods.

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

/// `calc_Bps` holds the n receivers' rates in steady state, or is nullptr in
/// slowstart.
std::vector<FeedbackCandidate> naive_shortlist(const RoundDrawInput& in,
                                               int n, const double* calc_Bps,
                                               const FeedbackTimerConfig& cfg,
                                               Rng& rng) {
  std::vector<FeedbackCandidate> all;
  for (int i = 0; i < n; ++i) {
    if (i == in.skip) continue;
    double x = in.x;
    double rate = in.rate_Bps;
    if (calc_Bps != nullptr) {
      rate = calc_Bps[i];
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

/// Chunk sizes that split [0, n), including the shapes that break chunked
/// loops: chunks of 1, a boundary exactly at `skip` or just after it, one
/// fixed-stride chunk larger than n (the block's own loop when n < its
/// chunk size), and empty chunks anywhere.
std::vector<int> random_split(int n, int skip, Rng& gen) {
  std::vector<int> sizes;
  const int kind = static_cast<int>(gen.uniform_int(0, 4));
  if (kind == 0) {
    sizes.assign(static_cast<std::size_t>(n), 1);
  } else if (kind == 1 || kind == 2) {
    // A fixed stride, as the block walks it; kind 2 exceeds n.
    const int stride = kind == 2 ? n + static_cast<int>(gen.uniform_int(1, 5))
                                 : static_cast<int>(gen.uniform_int(1, 3000));
    for (int first = 0; first < n; first += stride) {
      sizes.push_back(std::min(stride, n - first));
    }
  } else {
    // Random sizes; kind 3 puts a boundary exactly at `skip` or at
    // skip + 1.
    int left = n;
    if (kind == 3 && skip >= 0) {
      const int boundary = skip + static_cast<int>(gen.uniform_int(0, 1));
      sizes.push_back(boundary);
      left -= boundary;
    }
    while (left > 0) {
      const int c = gen.bernoulli(0.1)
                        ? 0
                        : static_cast<int>(gen.uniform_int(1, std::min(left, 700)));
      sizes.push_back(c);
      left -= c;
    }
  }
  if (gen.bernoulli(0.1)) {
    sizes.insert(sizes.begin() + gen.uniform_int(0, static_cast<std::int64_t>(
                                                        sizes.size())),
                 0);
  }
  return sizes;
}

/// Draws one round with CandidateDrawer, fed in `split` chunks, into `got`;
/// it must select exactly what naive_shortlist selects from an Rng on the
/// same seed, and leave that Rng at the same position.
void expect_naive_selection(const RoundDrawInput& in, int n,
                            const double* calc_Bps,
                            const FeedbackTimerConfig& cfg,
                            const std::vector<int>& split, std::uint64_t seed,
                            int trial, std::vector<FeedbackCandidate>& got) {
  Rng fast{seed};
  Rng naive{seed};
  CandidateDrawer drawer{in, cfg, got};
  int first = 0;
  for (const int count : split) {
    drawer.draw(count, calc_Bps != nullptr ? calc_Bps + first : nullptr,
                fast.engine());
    first += count;
  }
  drawer.finish();
  ASSERT_EQ(first, n) << "trial " << trial;
  const auto want = naive_shortlist(in, n, calc_Bps, cfg, naive);
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_TRUE(same(got[k], want[k]))
        << "trial " << trial << " rank " << k << ": got idx " << got[k].idx
        << " due " << got[k].due.count_nanos() << ", want idx "
        << want[k].idx << " due " << want[k].due.count_nanos();
  }
  ASSERT_EQ(fast.next_u64(), naive.next_u64()) << "trial " << trial;
}

TEST(ShortlistProperties, FilteredSelectionEqualsNaiveSortAndRngAgrees) {
  Rng gen{2024};
  std::vector<double> calc;
  std::vector<FeedbackCandidate> got;
  int filled = 0;
  int multi_chunk = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    RoundDrawInput in;
    const int n = trial % 50 == 0 ? 0  // an empty block
                  : static_cast<int>(gen.bernoulli(0.1)
                                         ? gen.uniform_int(0, 20000)
                                         : gen.uniform_int(0, 2000));
    in.skip = gen.bernoulli(0.5) && n > 0
                  ? static_cast<int>(gen.uniform_int(0, n - 1))
                  : -1;
    in.cap = static_cast<int>(gen.bernoulli(0.15)
                                  ? gen.uniform_int(n, n + 10)  // cap >= n
                                  : gen.uniform_int(1, 80));
    in.now = SimTime::nanos(gen.uniform_int(0, 1'000'000'000'000));
    in.fb_deadline = random_deadline(gen);
    in.send_rate_Bps = gen.bernoulli(0.05) ? 0.0 : gen.uniform(1e3, 1e7);
    const double* calc_Bps = nullptr;
    if (gen.bernoulli(0.4)) {
      // Slowstart shape: one shared ratio and rate.
      in.x = gen.bernoulli(0.2) ? static_cast<double>(gen.uniform_int(0, 1))
                                : gen.uniform01();
      in.rate_Bps = gen.uniform(0.0, 1e7);
    } else {
      // Steady-state shape: per-receiver rates, some ineligible (at or
      // above the send rate, or +inf), with a random eligible share.
      const double eligible = gen.uniform01();
      calc.assign(static_cast<std::size_t>(n), 0.0);
      for (double& c : calc) {
        if (gen.bernoulli(eligible)) {
          c = in.send_rate_Bps * gen.uniform(0.0, 1.0);
        } else if (gen.bernoulli(0.2)) {
          c = std::numeric_limits<double>::infinity();
        } else {
          c = in.send_rate_Bps * gen.uniform(1.0, 3.0);
        }
      }
      calc_Bps = calc.data();
    }
    const FeedbackTimerConfig cfg = random_timer(gen);
    const std::vector<int> split = random_split(n, in.skip, gen);

    ASSERT_NO_FATAL_FAILURE(expect_naive_selection(
        in, n, calc_Bps, cfg, split, gen.next_u64(), trial, got));
    filled += got.size() == static_cast<std::size_t>(in.cap);
    multi_chunk += split.size() > 1;
  }
  // Most trials overflow the short-list, so the filter was exercised, and
  // carry its state across chunk boundaries.
  EXPECT_GT(filled, 1500);
  EXPECT_GT(multi_chunk, 1500);
}

TEST(ShortlistProperties, SelectionEqualsNaiveAtExtremeSkipCeilings) {
  // A one-nanosecond deadline rounds every timer below 1 to the round
  // start, so the full short-list's top sits at t = 0 and its ceiling is
  // about 1/N.  N near 2^53 puts the skip ceiling next to the least uniform01
  // value, 2^-53 (and below it, where every word is skipped); N just above
  // 1 puts it just below 1, where almost no word is.
  static constexpr double kLowN[] = {0x1p50, 0x1p52, 0x1p53, 0x1p54, 1e18};
  static constexpr double kHighN[] = {1.0 + 2e-9, 1.0 + 1e-8, 1.0 + 1e-6,
                                      1.0 + 1e-4};
  static constexpr double kZeta[] = {0.0, 0.25, 0.5};
  Rng gen{4049};
  std::vector<double> calc;
  std::vector<FeedbackCandidate> got;
  int near_low = 0;
  int near_high = 0;
  for (int trial = 0; trial < 600; ++trial) {
    RoundDrawInput in;
    const int n = static_cast<int>(gen.uniform_int(1, 5000));
    in.skip = gen.bernoulli(0.3) ? static_cast<int>(gen.uniform_int(0, n - 1))
                                 : -1;
    in.cap = static_cast<int>(gen.uniform_int(1, 40));
    in.now = SimTime::nanos(gen.uniform_int(0, 1'000'000'000));
    in.fb_deadline = SimTime::nanos(1);
    in.send_rate_Bps = gen.uniform(1e3, 1e7);
    FeedbackTimerConfig cfg;
    cfg.method = static_cast<BiasMethod>(gen.uniform_int(0, 2));
    cfg.zeta = kZeta[gen.uniform_int(0, 2)];
    const bool low = trial % 2 == 0;
    cfg.n_estimate = low ? kLowN[gen.uniform_int(0, 4)]
                         : kHighN[gen.uniform_int(0, 3)];
    const double* calc_Bps = nullptr;
    if (gen.bernoulli(0.5)) {
      in.x = gen.uniform01();
      in.rate_Bps = gen.uniform(0.0, 1e7);
    } else {
      calc.assign(static_cast<std::size_t>(n), 0.0);
      for (double& c : calc) {
        c = in.send_rate_Bps * gen.uniform(0.0, gen.bernoulli(0.8) ? 1.0 : 2.0);
      }
      calc_Bps = calc.data();
    }
    const std::vector<int> split = random_split(n, in.skip, gen);
    ASSERT_NO_FATAL_FAILURE(expect_naive_selection(
        in, n, calc_Bps, cfg, split, gen.next_u64(), trial, got));
    // The drawer's final ceiling is that of the full list's top.
    if (got.size() < static_cast<std::size_t>(in.cap)) continue;
    const double ceiling = feedback_timer::uniform_ceiling(
        static_cast<double>((got.back().due - in.now).count_nanos()) /
            static_cast<double>(in.fb_deadline.count_nanos()),
        cfg);
    near_low += ceiling < 0x1p-50;
    near_high += ceiling > 1.0 - 1e-5 && ceiling < 1.0;
  }
  EXPECT_GT(near_low, 150);
  EXPECT_GT(near_high, 150);
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
