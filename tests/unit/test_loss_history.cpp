#include "tfrc/loss_history.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

TEST(LossHistory, WeightsMatchPaperForDepth8) {
  const auto w = LossHistory::weights(8);
  const std::vector<double> expect{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2};
  ASSERT_EQ(w.size(), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_NEAR(w[i], expect[i], 1e-12);
}

TEST(LossHistory, WeightsNewestHalfIsFlat) {
  for (int depth : {8, 16, 32}) {
    const auto w = LossHistory::weights(depth);
    for (int i = 0; i < depth / 2; ++i) {
      EXPECT_DOUBLE_EQ(w[static_cast<size_t>(i)], 1.0);
    }
    EXPECT_GT(w.back(), 0.0);
    EXPECT_LT(w.back(), w.front());
  }
}

TEST(LossHistory, WeightsAreOneTablePerDepth) {
  EXPECT_EQ(&LossHistory::weights(8), &LossHistory::weights(8));
  EXPECT_NE(&LossHistory::weights(8), &LossHistory::weights(16));
}

TEST(LossHistory, WeightTablesBuildConcurrently) {
  // Sweep points construct histories on several threads at once; each
  // thread must see the same table per depth and the same p.
  auto rate_at = [](int depth) {
    LossHistory h{depth};
    for (int e = 0; e < 2 * depth; ++e) {
      for (int i = 0; i < 10 + 3 * e; ++i) h.on_packet_received();
      h.on_packet_lost(SimTime::seconds(e), 100_ms);
    }
    return h.loss_event_rate();
  };
  constexpr int kThreads = 4;
  constexpr int kMaxDepth = 40;
  std::vector<std::vector<double>> rates(kThreads);
  std::vector<std::vector<const void*>> tables(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int d = 2; d <= kMaxDepth; ++d) {
        tables[t].push_back(&LossHistory::weights(d));
        rates[t].push_back(rate_at(d));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tables[t], tables[0]);
    EXPECT_EQ(rates[t], rates[0]);
  }
}

TEST(LossHistory, NoLossMeansZeroRate) {
  LossHistory h{8};
  for (int i = 0; i < 100; ++i) h.on_packet_received();
  EXPECT_FALSE(h.has_loss());
  EXPECT_DOUBLE_EQ(h.loss_event_rate(), 0.0);
}

TEST(LossHistory, FirstLossStartsEvent) {
  LossHistory h{8};
  for (int i = 0; i < 10; ++i) h.on_packet_received();
  EXPECT_TRUE(h.on_packet_lost(1_sec, 100_ms));
  EXPECT_TRUE(h.has_loss());
  EXPECT_EQ(h.event_count(), 1);
}

TEST(LossHistory, LossesWithinRttAreOneEvent) {
  LossHistory h{8};
  for (int i = 0; i < 10; ++i) h.on_packet_received();
  EXPECT_TRUE(h.on_packet_lost(1_sec, 100_ms));
  EXPECT_FALSE(h.on_packet_lost(SimTime::millis(1050), 100_ms));
  EXPECT_FALSE(h.on_packet_lost(SimTime::millis(1099), 100_ms));
  EXPECT_EQ(h.event_count(), 1);
}

TEST(LossHistory, LossAfterRttStartsNewEvent) {
  LossHistory h{8};
  for (int i = 0; i < 10; ++i) h.on_packet_received();
  h.on_packet_lost(1_sec, 100_ms);
  for (int i = 0; i < 20; ++i) h.on_packet_received();
  EXPECT_TRUE(h.on_packet_lost(SimTime::millis(1200), 100_ms));
  EXPECT_EQ(h.event_count(), 2);
  // The closed interval between the events counts the 20 packets.
  EXPECT_DOUBLE_EQ(h.intervals().front(), 20.0);
}

TEST(LossHistory, SteadyLossRateConvergesToInverseInterval) {
  LossHistory h{8};
  SimTime t = SimTime::zero();
  // One loss event every 50 received packets -> p = 1/50.
  for (int event = 0; event < 40; ++event) {
    for (int i = 0; i < 50; ++i) h.on_packet_received();
    t += 1_sec;
    h.on_packet_lost(t, 100_ms);
  }
  EXPECT_NEAR(h.loss_event_rate(), 1.0 / 50.0, 1e-3);
}

TEST(LossHistory, OpenIntervalOnlyCountsWhenItLowersRate) {
  LossHistory h{8};
  SimTime t = SimTime::zero();
  for (int event = 0; event < 10; ++event) {
    for (int i = 0; i < 10; ++i) h.on_packet_received();
    t += 1_sec;
    h.on_packet_lost(t, 100_ms);
  }
  const double p_before = h.loss_event_rate();
  // A long loss-free run must *lower* p via the open interval...
  for (int i = 0; i < 1000; ++i) h.on_packet_received();
  EXPECT_LT(h.loss_event_rate(), p_before);
  // ...but a short one must not raise it.
  LossHistory h2{8};
  SimTime t2 = SimTime::zero();
  for (int event = 0; event < 10; ++event) {
    for (int i = 0; i < 10; ++i) h2.on_packet_received();
    t2 += 1_sec;
    h2.on_packet_lost(t2, 100_ms);
  }
  const double p2 = h2.loss_event_rate();
  h2.on_packet_received();  // open interval of 1 packet
  EXPECT_DOUBLE_EQ(h2.loss_event_rate(), p2);
}

TEST(LossHistory, HistoryDepthBoundsIntervals) {
  LossHistory h{8};
  SimTime t = SimTime::zero();
  for (int event = 0; event < 100; ++event) {
    for (int i = 0; i < 5; ++i) h.on_packet_received();
    t += 1_sec;
    h.on_packet_lost(t, 100_ms);
  }
  EXPECT_LE(h.intervals().size(), 8u);
}

TEST(LossHistory, InitFirstIntervalReplacesCount) {
  LossHistory h{8};
  for (int i = 0; i < 3; ++i) h.on_packet_received();
  h.on_packet_lost(1_sec, 100_ms);
  h.init_first_interval(200.0);
  EXPECT_NEAR(h.average_interval(), 200.0, 1e-9);
  EXPECT_NEAR(h.loss_event_rate(), 1.0 / 200.0, 1e-9);
}

TEST(LossHistory, RescaleInitialIntervalAppendixB) {
  LossHistory h{8};
  for (int i = 0; i < 3; ++i) h.on_packet_received();
  h.on_packet_lost(1_sec, 500_ms);
  h.init_first_interval(400.0);
  // Real RTT is 4x smaller than the initial: interval shrinks by 16x.
  h.rescale_initial_interval(125_ms, 500_ms);
  EXPECT_NEAR(h.average_interval(), 400.0 / 16.0, 1e-9);
}

TEST(LossHistory, RescaleIsOneShot) {
  LossHistory h{8};
  h.on_packet_received();
  h.on_packet_lost(1_sec, 500_ms);
  h.init_first_interval(100.0);
  h.rescale_initial_interval(250_ms, 500_ms);
  const double after_first = h.average_interval();
  h.rescale_initial_interval(250_ms, 500_ms);
  EXPECT_DOUBLE_EQ(h.average_interval(), after_first);
}

TEST(LossHistory, ReaggregateMergesEventsUnderLargerRtt) {
  LossHistory h{8};
  SimTime t = SimTime::zero();
  // Three losses 200 ms apart: with RTT 100 ms these are 3 events.
  for (int i = 0; i < 10; ++i) h.on_packet_received();
  for (int k = 0; k < 3; ++k) {
    t += 200_ms;
    h.on_packet_lost(t, 100_ms);
    for (int i = 0; i < 10; ++i) h.on_packet_received();
  }
  EXPECT_EQ(h.event_count(), 3);
  // Re-aggregating with a 1 s RTT merges them into one event.
  h.reaggregate(1_sec);
  EXPECT_EQ(h.event_count(), 1);
}

TEST(LossHistory, ReaggregateSplitsEventsUnderSmallerRtt) {
  LossHistory h{8};
  SimTime t = SimTime::zero();
  for (int i = 0; i < 10; ++i) h.on_packet_received();
  // Three losses 200 ms apart aggregated with the *initial* 500 ms RTT:
  // one event.
  for (int k = 0; k < 3; ++k) {
    t += 200_ms;
    h.on_packet_lost(t, 500_ms);
    for (int i = 0; i < 10; ++i) h.on_packet_received();
  }
  EXPECT_EQ(h.event_count(), 1);
  // The true RTT of 50 ms separates them into 3 events (Appendix A).
  h.reaggregate(50_ms);
  EXPECT_EQ(h.event_count(), 3);
  EXPECT_GT(h.loss_event_rate(), 0.0);
}

TEST(LossHistory, ReaggregatePreservesTotalPackets) {
  LossHistory h{4};
  SimTime t = SimTime::zero();
  for (int k = 0; k < 5; ++k) {
    for (int i = 0; i < 7; ++i) h.on_packet_received();
    t += 300_ms;
    h.on_packet_lost(t, 100_ms);
  }
  h.reaggregate(100_ms);  // same RTT: intervals unchanged
  EXPECT_EQ(h.event_count(), 5);
  for (const double iv : h.intervals()) EXPECT_DOUBLE_EQ(iv, 7.0);
}

TEST(LossHistory, ReaggregateUsesTheNewestLoggedLosses) {
  // 300 losses, far apart, with k + 1 packets before loss k: the log keeps
  // the newest 256, so re-aggregating rebuilds 256 events whose newest
  // closed intervals are 300, 299, ... in that order.
  LossHistory h{8};
  SimTime t = SimTime::zero();
  for (int k = 0; k < 300; ++k) {
    for (int i = 0; i <= k; ++i) h.on_packet_received();
    t += 300_ms;
    h.on_packet_lost(t, 100_ms);
  }
  h.reaggregate(100_ms);
  EXPECT_EQ(h.event_count(), 256);
  const std::vector<double> want{300, 299, 298, 297, 296, 295, 294, 293};
  EXPECT_EQ(h.intervals(), want);
}

TEST(LossHistory, LossesAfterReaggregateCloseIntervalsAsBefore) {
  // Two histories fed the same packets; one is re-aggregated with the RTT
  // it aggregated with, which rebuilds identical intervals.  Later losses
  // must close intervals in both exactly alike.
  LossHistory plain{8};
  LossHistory reagg{8};
  SimTime t = SimTime::zero();
  auto feed = [&](int received, SimTime gap) {
    for (int i = 0; i < received; ++i) {
      plain.on_packet_received();
      reagg.on_packet_received();
    }
    t += gap;
    EXPECT_EQ(plain.on_packet_lost(t, 100_ms), reagg.on_packet_lost(t, 100_ms));
  };
  for (int k = 0; k < 4; ++k) feed(6 + k, 300_ms);
  reagg.reaggregate(100_ms);
  ASSERT_EQ(reagg.intervals(), plain.intervals());
  feed(11, 300_ms);
  feed(3, 50_ms);  // same event
  for (int k = 0; k < 10; ++k) feed(9 + k, 250_ms);  // ages out the depth
  EXPECT_EQ(reagg.intervals(), plain.intervals());
  EXPECT_EQ(reagg.open_interval(), plain.open_interval());
  EXPECT_EQ(reagg.event_count(), plain.event_count());
  EXPECT_EQ(reagg.loss_event_rate(), plain.loss_event_rate());
}

TEST(LossHistory, SecondReaggregateChangesNothing) {
  LossHistory h{8};
  SimTime t = SimTime::zero();
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 10; ++i) h.on_packet_received();
    t += 200_ms;
    h.on_packet_lost(t, 500_ms);
  }
  h.reaggregate(50_ms);
  // Losses after the first reaggregation are not logged for a second one.
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 4; ++i) h.on_packet_received();
    t += 20_ms;
    h.on_packet_lost(t, 50_ms);
  }
  const std::vector<double> intervals = h.intervals();
  const double open = h.open_interval();
  h.reaggregate(1_sec);
  EXPECT_EQ(h.intervals(), intervals);
  EXPECT_EQ(h.open_interval(), open);
}

LossHistory make_history() {
  LossHistory h{4};
  SimTime t = SimTime::zero();
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 5; ++i) h.on_packet_received();
    t += 300_ms;
    h.on_packet_lost(t, 100_ms);
  }
  return h;
}

// Regression for the PR 1 dangling-temporary pattern (see
// TimeSeries::points()): iterating intervals() off a by-value result must
// not reference a destroyed temporary; under ASan the old pattern fails
// with heap-use-after-free.
TEST(LossHistory, IntervalsOffATemporaryStayValid) {
  double sum = 0.0;
  for (const double iv : make_history().intervals()) sum += iv;
  EXPECT_GT(sum, 0.0);
}

}  // namespace
}  // namespace tfmcc
