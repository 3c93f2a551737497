#include "analysis/feedback_round.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/feedback_model.hpp"
#include "tfmcc/feedback_timer.hpp"

namespace tfmcc {
namespace {

namespace fr = feedback_round;

fr::RoundConfig make_cfg(double delta = 0.1,
                         BiasMethod m = BiasMethod::kModifiedOffset) {
  fr::RoundConfig cfg;
  cfg.delta = delta;
  cfg.timer.method = m;
  return cfg;
}

TEST(FeedbackRound, SingleReceiverAlwaysResponds) {
  Rng rng{1};
  const std::vector<double> v{0.4};
  const auto res = fr::simulate(v, make_cfg(), rng);
  EXPECT_EQ(res.responses, 1);
  EXPECT_DOUBLE_EQ(res.best_value, 0.4);
  EXPECT_DOUBLE_EQ(res.true_min, 0.4);
}

TEST(FeedbackRound, SuppressionBoundsResponsesForLargeN) {
  // Fig. 3's worst case: all receivers suddenly congested at a similar
  // level (values clustered), δ = 0.1.  Only marginally more feedback than
  // full suppression — far from an implosion.
  Rng rng{2};
  const auto values = fr::uniform_values(10000, 0.4, 0.6, rng);
  const auto res = fr::simulate(values, make_cfg(0.1), rng);
  EXPECT_GE(res.responses, 1);
  EXPECT_LT(res.responses, 120);
}

TEST(FeedbackRound, DeltaOneSuppressesEverythingAfterFirstEcho) {
  Rng rng{3};
  const auto values = fr::uniform_values(5000, 0.4, 0.6, rng);
  const auto res = fr::simulate(values, make_cfg(1.0), rng);
  // Only responses within one RTT of the earliest can escape suppression.
  EXPECT_LT(res.responses, 60);
}

TEST(FeedbackRound, DeltaZeroAllowsLowestToReport) {
  Rng rng{4};
  const auto values = fr::uniform_values(2000, 0.0, 1.0, rng);
  const auto res = fr::simulate(values, make_cfg(0.0), rng);
  // δ=0: only strictly-lower reports escape, so the final best equals the
  // true minimum.
  EXPECT_DOUBLE_EQ(res.best_value, res.true_min);
}

TEST(FeedbackRound, MoreSuppressionWithLargerDelta) {
  Rng root{5};
  double avg0 = 0, avg1 = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    Rng ra = root.substream(static_cast<uint64_t>(t) * 2);
    Rng rb = root.substream(static_cast<uint64_t>(t) * 2 + 1);
    const auto values = fr::uniform_values(3000, 0.3, 0.7, ra);
    avg0 += fr::simulate(values, make_cfg(0.0), ra).responses;
    avg1 += fr::simulate(values, make_cfg(1.0), rb).responses;
  }
  EXPECT_GT(avg0 / trials, avg1 / trials);
}

TEST(FeedbackRound, BiasImprovesReportedRateQuality) {
  // Fig. 6 isolates the biasing methods under full suppression (δ = 1:
  // any echo cancels); the biased timers then determine *which* receivers
  // get through before suppression, and low-rate receivers must win.
  Rng root{6};
  double err_unbiased = 0, err_offset = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    Rng r1 = root.substream(static_cast<uint64_t>(t) * 2);
    Rng r2 = root.substream(static_cast<uint64_t>(t) * 2 + 1);
    const auto values = fr::uniform_values(2000, 0.0, 1.0, r1);
    const auto a =
        fr::simulate(values, make_cfg(1.0, BiasMethod::kUnbiased), r1);
    const auto b = fr::simulate(values, make_cfg(1.0, BiasMethod::kOffset), r2);
    err_unbiased += a.best_value - a.true_min;
    err_offset += b.best_value - b.true_min;
  }
  EXPECT_LT(err_offset, 0.5 * err_unbiased);
}

TEST(FeedbackRound, ResponseTimeDecreasesWithN) {
  Rng root{7};
  double t_small = 0, t_large = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng r1 = root.substream(static_cast<uint64_t>(t) * 2);
    Rng r2 = root.substream(static_cast<uint64_t>(t) * 2 + 1);
    const auto v_small = fr::uniform_values(10, 0.0, 1.0, r1);
    const auto v_large = fr::uniform_values(10000, 0.0, 1.0, r2);
    t_small += fr::simulate(v_small, make_cfg(), r1).first_time;
    t_large += fr::simulate(v_large, make_cfg(), r2).first_time;
  }
  EXPECT_LT(t_large / trials, t_small / trials);
}

TEST(FeedbackRound, OutcomesRecordEveryReceiver) {
  Rng rng{8};
  const auto values = fr::uniform_values(100, 0.0, 1.0, rng);
  const auto res = fr::simulate(values, make_cfg(), rng, true);
  ASSERT_EQ(res.outcomes.size(), 100u);
  int sent = 0;
  for (const auto& o : res.outcomes) sent += o.sent;
  EXPECT_EQ(sent, res.responses);
}

TEST(FeedbackModel, ExpectedMessagesMatchesMonteCarlo) {
  FeedbackTimerConfig cfg;
  cfg.method = BiasMethod::kUnbiased;
  cfg.n_estimate = 10000;
  const int n = 1000;
  const double analytic = feedback_model::expected_messages(n, 3.0, 1.0, 0.0, cfg);

  // Monte Carlo with the same timer transform and a pure-delay (no echo
  // value logic) suppression model.
  Rng rng{9};
  double acc = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> ts(n);
    for (auto& x : ts) x = feedback_timer::draw(0.0, cfg, rng) * 3.0;
    const double mn = *std::min_element(ts.begin(), ts.end());
    int m = 0;
    for (double x : ts) m += (x <= mn + 1.0);
    acc += m;
  }
  const double mc = acc / trials;
  EXPECT_NEAR(analytic, mc, 0.15 * mc + 0.5);
}

TEST(FeedbackModel, ExpectedMessagesInUsefulBandAtRecommendedT) {
  // §2.5.4: T' in [3,4] RTTs yields a moderate number of duplicates for
  // n up to two orders of magnitude below N = 10000.
  FeedbackTimerConfig cfg;
  cfg.method = BiasMethod::kUnbiased;
  cfg.n_estimate = 10000;
  for (int n : {10, 100, 1000}) {
    const double m = feedback_model::expected_messages(n, 3.0, 1.0, 0.0, cfg);
    EXPECT_GE(m, 1.0);
    EXPECT_LT(m, 40.0) << "n=" << n;
  }
}

TEST(FeedbackModel, ImplosionWhenNUnderestimated) {
  // If the true receiver count far exceeds N, many immediate responses.
  FeedbackTimerConfig cfg;
  cfg.method = BiasMethod::kUnbiased;
  cfg.n_estimate = 100;  // way below the actual 100000
  const double m = feedback_model::expected_messages(100000, 3.0, 1.0, 0.0, cfg);
  EXPECT_GT(m, 500.0);
}

}  // namespace
}  // namespace tfmcc
