// Oracle test for the modeled block's feedback short-list: CandidateDrawer
// (steady-state eligibility by one least-eligible RTT, a bounded heap, and
// the uniform-ceiling filter that skips timers which can no longer enter
// it, fed the block in chunks) must select exactly what a naive "evaluate
// every receiver's rate, draw every eligible timer, sort by (due, idx), take
// cap" selects, and leave the RNG at the same position, for random block
// shapes, chunkings, RTTs (some exactly at the threshold), loss event rates,
// caps, deadlines, CLR skip indices and all four bias methods.  A second
// property checks least_eligible_rtt against the per-receiver rate test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tfmcc/feedback_timer.hpp"
#include "tfmcc/receiver_block.hpp"
#include "tfrc/equation_backend.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

/// `rtt` holds the n receivers' RTTs in steady state, or is nullptr in
/// slowstart.
std::vector<FeedbackCandidate> naive_shortlist(const RoundDrawInput& in,
                                               int n, const SimTime* rtt,
                                               const FeedbackTimerConfig& cfg,
                                               Rng& rng) {
  std::vector<FeedbackCandidate> all;
  for (int i = 0; i < n; ++i) {
    if (i == in.skip) continue;
    double x = in.x;
    double rate = in.rate_Bps;
    if (rtt != nullptr) {
      rate = in.equation->throughput_Bps(kDataPacketBytes, rtt[i], in.p);
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

/// A loss event rate: mostly the protocol's range, plus p >= 1 (clamped to
/// 1 by the equation).
double random_loss_rate(Rng& gen) {
  static constexpr double kEdge[] = {1.0, 1.5, 40.0, 1e-8};
  return gen.bernoulli(0.1) ? kEdge[gen.uniform_int(0, 3)]
                            : std::pow(10.0, gen.uniform(-6.0, 0.0));
}

/// Steady-state inputs of a round: the float equation at a random p, and n
/// RTTs of which about `eligible_share` lie at or above the least eligible
/// one.  Some sit exactly on it or one nanosecond below, some at 0 ns (an
/// infinite rate), and some trials draw from a pool of four values
/// (duplicates).
void steady_round(RoundDrawInput& in, int n, double eligible_share,
                  std::vector<SimTime>& rtt, Rng& gen) {
  in.equation = &float_equation_backend();
  in.p = random_loss_rate(gen);
  const auto floor = least_eligible_rtt(*in.equation, in.p, in.send_rate_Bps);
  const std::int64_t f =
      floor ? std::max<std::int64_t>(floor->count_nanos(), 1)
            : gen.uniform_int(1, 1'000'000'000);
  const std::int64_t above =
      std::min(f, std::numeric_limits<std::int64_t>::max() - f);
  const auto one = [&] {
    if (gen.bernoulli(0.05)) return SimTime::nanos(f);
    if (gen.bernoulli(0.05)) return SimTime::nanos(f - 1);
    if (gen.bernoulli(0.02)) return SimTime::zero();
    return SimTime::nanos(gen.bernoulli(eligible_share)
                              ? f + gen.uniform_int(0, above)
                              : gen.uniform_int(0, f - 1));
  };
  rtt.clear();
  if (gen.bernoulli(0.2)) {
    const SimTime pool[] = {one(), one(), one(), one()};
    for (int i = 0; i < n; ++i) rtt.push_back(pool[gen.uniform_int(0, 3)]);
  } else {
    for (int i = 0; i < n; ++i) rtt.push_back(one());
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
                            const SimTime* rtt,
                            const FeedbackTimerConfig& cfg,
                            const std::vector<int>& split, std::uint64_t seed,
                            int trial, std::vector<FeedbackCandidate>& got) {
  Rng fast{seed};
  Rng naive{seed};
  CandidateDrawer drawer{in, cfg, got};
  int first = 0;
  for (const int count : split) {
    drawer.draw(count, rtt != nullptr ? rtt + first : nullptr, fast.engine());
    first += count;
  }
  drawer.finish();
  ASSERT_EQ(first, n) << "trial " << trial;
  const auto want = naive_shortlist(in, n, rtt, cfg, naive);
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
  std::vector<SimTime> rtts;
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
    const SimTime* rtt = nullptr;
    if (gen.bernoulli(0.4)) {
      // Slowstart shape: one shared ratio and rate.
      in.x = gen.bernoulli(0.2) ? static_cast<double>(gen.uniform_int(0, 1))
                                : gen.uniform01();
      in.rate_Bps = gen.uniform(0.0, 1e7);
    } else {
      // Steady-state shape: per-receiver RTTs, some ineligible (their rate
      // at or above the send rate, or +inf), with a random eligible share.
      steady_round(in, n, gen.uniform01(), rtts, gen);
      rtt = rtts.data();
    }
    const FeedbackTimerConfig cfg = random_timer(gen);
    const std::vector<int> split = random_split(n, in.skip, gen);

    ASSERT_NO_FATAL_FAILURE(expect_naive_selection(
        in, n, rtt, cfg, split, gen.next_u64(), trial, got));
    filled += got.size() == static_cast<std::size_t>(in.cap);
    multi_chunk += split.size() > 1;
  }
  // Most trials overflow the short-list, so the filter was exercised, and
  // carry its state across chunk boundaries.
  EXPECT_GT(filled, 1500);
  EXPECT_GT(multi_chunk, 1500);
}

TEST(ShortlistProperties, LeastEligibleRttSplitsRatesLikeThePerReceiverTest) {
  // An RTT is eligible iff it is at or above least_eligible_rtt, exactly
  // when its own rate is below the send rate, bit for bit.
  static constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const EquationBackend& eq = float_equation_backend();
  Rng gen{3141};
  std::vector<std::int64_t> rtts;
  int none = 0;
  int split = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    double p = random_loss_rate(gen);
    if (gen.bernoulli(0.03)) p = gen.bernoulli(0.5) ? 0.0 : -0.5;
    rtts = {0, 1, 2, kMax - 1, kMax};
    for (int i = 0; i < 40; ++i) {
      rtts.push_back(static_cast<std::int64_t>(
          std::pow(10.0, gen.uniform(0.0, 18.5))));
    }
    rtts.push_back(rtts[static_cast<std::size_t>(gen.uniform_int(5, 44))]);
    double send = std::pow(10.0, gen.uniform(-2.0, 10.0));
    switch (gen.uniform_int(0, 9)) {
      case 0: send = gen.bernoulli(0.5) ? 0.0 : -send; break;
      case 1:
        send = std::numeric_limits<double>::infinity();
        break;
      case 2:
      case 3:
        // A tie: one receiver's rate is exactly the send rate.
        send = eq.throughput_Bps(
            kDataPacketBytes,
            SimTime::nanos(rtts[static_cast<std::size_t>(
                gen.uniform_int(0, static_cast<std::int64_t>(rtts.size()) -
                                       1))]),
            p);
        break;
      default: break;
    }
    const auto floor = least_eligible_rtt(eq, p, send);
    if (floor) {
      const std::int64_t f = floor->count_nanos();
      rtts.push_back(f);
      if (f > 0) rtts.push_back(f - 1);
      if (f < kMax) rtts.push_back(f + 1);
    }
    int eligible = 0;
    for (const std::int64_t r : rtts) {
      const bool want =
          eq.throughput_Bps(kDataPacketBytes, SimTime::nanos(r), p) < send;
      ASSERT_EQ(floor.has_value() && r >= floor->count_nanos(), want)
          << "trial " << trial << " p=" << p << " send=" << send
          << " rtt=" << r << " floor="
          << (floor ? floor->count_nanos() : -1);
      eligible += want;
    }
    none += !floor.has_value();
    split += eligible > 0 && eligible < static_cast<int>(rtts.size());
  }
  // Both outcomes, and mixed eligible sets, are common.
  EXPECT_GT(none, 300);
  EXPECT_GT(split, 2000);
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
  std::vector<SimTime> rtts;
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
    const SimTime* rtt = nullptr;
    if (gen.bernoulli(0.5)) {
      in.x = gen.uniform01();
      in.rate_Bps = gen.uniform(0.0, 1e7);
    } else {
      steady_round(in, n, gen.bernoulli(0.8) ? 1.0 : 0.5, rtts, gen);
      rtt = rtts.data();
    }
    const std::vector<int> split = random_split(n, in.skip, gen);
    ASSERT_NO_FATAL_FAILURE(expect_naive_selection(
        in, n, rtt, cfg, split, gen.next_u64(), trial, got));
    // The drawer's final ceiling is that of the full list's top at the
    // least bias of the last chunk: the shared ratio's in slowstart, and in
    // steady state at most the x-unaware ceiling taken here.
    if (got.size() < static_cast<std::size_t>(in.cap)) continue;
    const double ceiling = feedback_timer::uniform_ceiling(
        static_cast<double>((got.back().due - in.now).count_nanos()) /
            static_cast<double>(in.fb_deadline.count_nanos()),
        cfg, rtt == nullptr ? feedback_timer::bias(in.x, cfg) : 0.0);
    near_low += ceiling < 0x1p-50;
    near_high += ceiling > 1.0 - 1e-5 && ceiling < 1.0;
  }
  EXPECT_GT(near_low, 150);
  EXPECT_GT(near_high, 150);
}

TEST(ShortlistProperties, UniformCeilingIsConservative) {
  // Every u above the ceiling of t yields a timer >= t, for any x, and for
  // any x whose bias is at least the ceiling's min_bias; u is drawn both
  // anywhere above the ceiling and just above it.
  Rng gen{77};
  int biased = 0;
  for (int trial = 0; trial < 200000; ++trial) {
    const FeedbackTimerConfig cfg = random_timer(gen);
    const double t = gen.bernoulli(0.1) ? 0.0 : gen.uniform01();
    const double x = gen.uniform01();
    const bool x_aware = gen.bernoulli(0.5);
    // A lower bound of x's bias: its own, or that of a smaller ratio.
    const double min_bias =
        x_aware ? feedback_timer::bias(gen.bernoulli(0.5) ? x
                                                          : x * gen.uniform01(),
                                       cfg)
                : 0.0;
    const double ceiling = feedback_timer::uniform_ceiling(t, cfg, min_bias);
    ASSERT_LE(ceiling, feedback_timer::uniform_ceiling(t, cfg));
    if (ceiling >= 1.0) continue;
    const double u = gen.bernoulli(0.5)
                         ? gen.uniform(ceiling, 1.0)
                         : std::nextafter(ceiling, 2.0) *
                               (1.0 + 1e-15 * gen.uniform_int(0, 3));
    if (!(u > ceiling) || u > 1.0) continue;
    biased += min_bias > 0.0;
    ASSERT_GE(feedback_timer::from_uniform(u, x, cfg), t)
        << "trial " << trial << " u=" << u << " ceiling=" << ceiling
        << " min_bias=" << min_bias;
  }
  EXPECT_GT(biased, 10000);
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
