#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

TEST(TimeSeries, MeanInWindow) {
  TimeSeries ts;
  ts.push(1_sec, 10.0);
  ts.push(2_sec, 20.0);
  ts.push(3_sec, 30.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(1_sec, 3_sec), 15.0);  // [1, 3) excludes t=3
  EXPECT_DOUBLE_EQ(ts.mean_in(0_sec, 10_sec), 20.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(5_sec, 10_sec), 0.0);
}

TEST(TimeSeries, CsvOutput) {
  TimeSeries ts;
  ts.push(1_sec, 2.5);
  std::ostringstream os;
  ts.write_csv(os, "flow1");
  EXPECT_EQ(os.str(), "flow1,1,2.5\n");
}

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

TEST(Histogram, QuantileAndCounts) {
  Histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.count(), 100);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h{0.0, 1.0, 4};
  h.add(-5.0);
  h.add(99.0);
  EXPECT_EQ(h.bins().front(), 1);
  EXPECT_EQ(h.bins().back(), 1);
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

Histogram make_histogram() {
  Histogram h{0.0, 10.0, 5};
  h.add(1.0);
  h.add(9.0);
  return h;
}

TEST(AccessorChains, HistogramBinsOffATemporaryStaysValid) {
  std::int64_t total = 0;
  for (const std::int64_t c : make_histogram().bins()) total += c;
  EXPECT_EQ(total, 2);
  // Lvalue access still returns a reference, not a copy.
  Histogram h = make_histogram();
  const auto* first = h.bins().data();
  EXPECT_EQ(h.bins().data(), first);
}

}  // namespace
}  // namespace tfmcc
