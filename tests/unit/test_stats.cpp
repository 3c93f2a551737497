#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

TEST(ThroughputBinner, BinsBytesIntoRates) {
  ThroughputBinner b{1_sec};
  b.add(SimTime::millis(100), 1000);
  b.add(SimTime::millis(900), 1000);
  b.add(SimTime::millis(1500), 500);
  const TimeSeries s = b.series_kbps();
  ASSERT_EQ(s.size(), 2u);
  // Bin 0: 2000 bytes in 1 s = 16 kbit/s.
  EXPECT_DOUBLE_EQ(s.points()[0].v, 16.0);
  EXPECT_DOUBLE_EQ(s.points()[1].v, 4.0);
  EXPECT_EQ(b.total_bytes(), 2500);
}

TEST(ThroughputBinner, MeanOverWindow) {
  ThroughputBinner b{1_sec};
  b.add(SimTime::millis(500), 1250);   // bin 0
  b.add(SimTime::millis(1500), 1250);  // bin 1
  // 2500 bytes over 2 s = 1250 B/s = 10 kbit/s.
  EXPECT_DOUBLE_EQ(b.mean_kbps(0_sec, 2_sec), 10.0);
}

TEST(ThroughputBinner, RejectsNonPositiveBinWidth) {
  // A zero width would divide by zero in add(), and a negative one would
  // turn an arrival into a huge bin index.
  EXPECT_THROW(ThroughputBinner{SimTime::zero()}, std::invalid_argument);
  EXPECT_THROW(ThroughputBinner{SimTime::millis(-1)}, std::invalid_argument);
  EXPECT_THROW(ThroughputBinner{SimTime::nanos(-1)}, std::invalid_argument);
  ThroughputBinner one_ns{SimTime::nanos(1)};
  one_ns.add(SimTime::nanos(3), 100);
  EXPECT_EQ(one_ns.series_kbps().size(), 4u);
}

TEST(WindowedRateMeter, NoEstimateBeforeTwoPackets) {
  WindowedRateMeter m;
  EXPECT_FALSE(m.has_estimate());
  m.on_packet(1_sec, 1000);
  EXPECT_FALSE(m.has_estimate());
  EXPECT_DOUBLE_EQ(m.rate_Bps(1_sec), 0.0);
}

TEST(WindowedRateMeter, SteadyRate) {
  WindowedRateMeter m;
  // 1000 bytes every 100 ms -> 10 kB/s.
  for (int i = 0; i <= 10; ++i) m.on_packet(SimTime::millis(100 * i), 1000);
  EXPECT_NEAR(m.rate_Bps(1_sec), 10000.0, 1.0);
}

TEST(WindowedRateMeter, WindowSlides) {
  WindowedRateMeter m{4, 10_sec};
  for (int i = 0; i < 10; ++i) m.on_packet(SimTime::millis(100 * i), 1000);
  // Only the last 4 arrivals matter: 3 intervals of 100ms carrying 3000 B.
  EXPECT_NEAR(m.rate_Bps(SimTime::millis(900)), 10000.0, 1.0);
}

TEST(WindowedRateMeter, HorizonEvictsOldArrivals) {
  WindowedRateMeter m{64, 1_sec};
  m.on_packet(0_sec, 1000);
  m.on_packet(5_sec, 1000);
  m.on_packet(SimTime::millis(5100), 1000);
  // First arrival is far outside the horizon and must have been dropped:
  // rate over [5.0, 5.1] = 1000 B / 0.1 s.
  EXPECT_NEAR(m.rate_Bps(SimTime::millis(5100)), 10000.0, 1.0);
}

TEST(WindowedRateMeter, FullWindowWrapsItsInlineRing) {
  WindowedRateMeter m{WindowedRateMeter::kMaxPackets, 100_sec};
  // 1000 bytes every 10 ms, wrapping the ring three times; the window holds
  // the last 64 arrivals: 63 intervals carrying 63000 B -> 100 kB/s.
  for (int i = 0; i < 200; ++i) m.on_packet(SimTime::millis(10 * i), 1000);
  EXPECT_NEAR(m.rate_Bps(SimTime::millis(1990)), 100000.0, 1.0);
  EXPECT_THROW(WindowedRateMeter{WindowedRateMeter::kMaxPackets + 1},
               std::invalid_argument);
}

TEST(QuantileFunction, ExactValues) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(QuantileFunction, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(RateConversions, RoundTrip) {
  EXPECT_DOUBLE_EQ(kbps_from_Bps(125000.0), 1000.0);
  EXPECT_DOUBLE_EQ(Bps_from_kbps(1000.0), 125000.0);
  EXPECT_DOUBLE_EQ(Bps_from_kbps(kbps_from_Bps(777.0)), 777.0);
}

// Regression for the PR 1 dangling-temporary pattern: accessor chains on a
// by-value result must move the container out (rvalue overload) instead of
// returning a reference into a destroyed temporary.  Under ASan the old
// pattern fails here with heap-use-after-free.

TEST(AccessorChains, SeriesKbpsPointsOffATemporaryStaysValid) {
  ThroughputBinner binner{SimTime::seconds(1.0)};
  for (int i = 0; i < 5; ++i) {
    binner.add(SimTime::seconds(0.5 + i), 125000);
  }
  double sum = 0.0;
  for (const auto& p : binner.series_kbps().points()) sum += p.v;
  EXPECT_GT(sum, 0.0);
}

}  // namespace
}  // namespace tfmcc
