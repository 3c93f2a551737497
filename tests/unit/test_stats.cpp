#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

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

/// ThroughputBinner before the inline current bin: every add() indexes
/// bins_ by division.  Readers are the same formulas over those bins.
struct NaiveBinner {
  SimTime width;
  std::vector<std::int64_t> bins;
  std::int64_t total{0};

  void add(SimTime t, std::int64_t bytes) {
    const auto i = static_cast<std::size_t>(t.count_nanos() / width.count_nanos());
    if (bins.size() <= i) bins.resize(i + 1, 0);
    bins[i] += bytes;
    total += bytes;
  }
  std::vector<TimeSeries::Point> series_kbps() const {
    std::vector<TimeSeries::Point> out;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const double bps = static_cast<double>(bins[i]) / width.to_seconds();
      out.push_back({width * static_cast<double>(i), kbps_from_Bps(bps)});
    }
    return out;
  }
  double mean_kbps(SimTime from, SimTime to) const {
    if (to <= from) return 0.0;
    std::int64_t bytes = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const SimTime start = width * static_cast<double>(i);
      if (start >= from && start < to) bytes += bins[i];
    }
    return kbps_from_Bps(static_cast<double>(bytes) /
                         (to - from).to_seconds());
  }
};

void expect_same_reads(const ThroughputBinner& b, const NaiveBinner& ref,
                       SimTime horizon, const std::string& where) {
  SCOPED_TRACE(where);
  const std::vector<TimeSeries::Point> got = b.series_kbps().points();
  const std::vector<TimeSeries::Point> want = ref.series_kbps();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].t, want[i].t) << "bin " << i;
    ASSERT_EQ(got[i].v, want[i].v) << "bin " << i;
  }
  EXPECT_EQ(b.total_bytes(), ref.total);
  const SimTime w = ref.width;
  for (const auto& [from, to] :
       {std::pair{SimTime::zero(), horizon}, std::pair{w, w * 3.0},
        std::pair{horizon * 0.5, horizon}, std::pair{w * 0.5, w * 70.0}}) {
    ASSERT_EQ(b.mean_kbps(from, to), ref.mean_kbps(from, to));
  }
}

TEST(ThroughputBinner, InlineCurrentBinMatchesPerAddBinsOverRandomArrivals) {
  // Random arrival sequences mixing back-to-back packets, steps of a few
  // bins, silences longer than 64 bins, the odd arrival in an earlier bin,
  // zero-byte adds and a late first arrival, with every reader compared
  // between adds.
  Rng rng{17};
  int reads = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const SimTime w = SimTime::millis(1 + rng.uniform_int(0, 999));
    ThroughputBinner b{w};
    NaiveBinner ref{w, {}};
    const bool late_start = trial % 4 == 1;
    SimTime t = late_start ? w * static_cast<double>(rng.uniform_int(64, 900))
                           : SimTime::nanos(rng.uniform_int(0, 1000));
    const int adds = static_cast<int>(rng.uniform_int(0, 400));
    if (adds == 0 || trial % 4 == 2) {
      expect_same_reads(b, ref, w * 10.0, "before the first arrival");
      ++reads;
    }
    for (int i = 0; i < adds; ++i) {
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.6) {
        t += SimTime::nanos(rng.uniform_int(0, w.count_nanos() / 4));
      } else if (kind < 0.85) {
        t += w * rng.uniform(0.5, 5.0);
      } else if (kind < 0.95) {
        t += w * rng.uniform(64.0, 200.0);  // a silence past the step path
      } else {
        // An arrival in an earlier bin, which the binner re-anchors for.
        t = SimTime::nanos(rng.uniform_int(0, t.count_nanos()));
      }
      const std::int64_t bytes = rng.uniform_int(0, 9) == 0
                                     ? 0
                                     : rng.uniform_int(1, 1500);
      b.add(t, bytes);
      ref.add(t, bytes);
      if (rng.uniform_int(0, 15) == 0 || i + 1 == adds) {
        expect_same_reads(b, ref, t + w, "trial " + std::to_string(trial) +
                                             " add " + std::to_string(i));
        ++reads;
      }
    }
  }
  EXPECT_GT(reads, 100);
}

TEST(WindowedRateMeter, NoEstimateBeforeTwoPackets) {
  WindowedRateMeter m;
  EXPECT_FALSE(m.has_estimate());
  m.on_packet(1_sec);
  EXPECT_FALSE(m.has_estimate());
  EXPECT_DOUBLE_EQ(m.rate_Bps(1_sec), 0.0);
}

TEST(WindowedRateMeter, SteadyRate) {
  WindowedRateMeter m;
  // 1000 bytes every 100 ms -> 10 kB/s.
  for (int i = 0; i <= 10; ++i) m.on_packet(SimTime::millis(100 * i));
  EXPECT_NEAR(m.rate_Bps(1_sec), 10000.0, 1.0);
}

TEST(WindowedRateMeter, WindowSlides) {
  static_assert(WindowedRateMeter::kPacketBytes == 1000);
  constexpr std::int64_t kWindow = WindowedRateMeter::kWindowPackets;
  // The whole window fits the horizon, so only the packet count slides it.
  static_assert(SimTime::millis(50 * (kWindow - 1)) <
                WindowedRateMeter::kHorizon);
  WindowedRateMeter m;
  // A burst 1 ms apart, then kWindowPackets arrivals 50 ms apart: only the
  // last kWindowPackets matter, kWindowPackets - 1 intervals of 50 ms
  // carrying 1000 B each -> 20 kB/s.
  for (int i = 0; i < 10; ++i) m.on_packet(SimTime::millis(i));
  for (std::int64_t i = 1; i <= kWindow; ++i) {
    m.on_packet(SimTime::millis(10 + 50 * i));
  }
  EXPECT_NEAR(m.rate_Bps(SimTime::millis(10 + 50 * kWindow)), 20000.0, 1.0);
}

TEST(WindowedRateMeter, HorizonEvictsOldArrivals) {
  static_assert(WindowedRateMeter::kHorizon < 5_sec &&
                WindowedRateMeter::kHorizon > 100_ms);
  WindowedRateMeter m;
  m.on_packet(0_sec);
  m.on_packet(5_sec);
  m.on_packet(SimTime::millis(5100));
  // First arrival is far outside the horizon and must have been dropped:
  // rate over [5.0, 5.1] = 1000 B / 0.1 s.
  EXPECT_NEAR(m.rate_Bps(SimTime::millis(5100)), 10000.0, 1.0);
}

TEST(WindowedRateMeter, FullWindowWrapsItsInlineRing) {
  static_assert(200 > 3 * WindowedRateMeter::kWindowPackets &&
                SimTime::millis(10 * 63) < WindowedRateMeter::kHorizon);
  WindowedRateMeter m;
  // 1000 bytes every 10 ms, wrapping the ring three times; the window holds
  // the last 64 arrivals: 63 intervals carrying 63000 B -> 100 kB/s.
  for (int i = 0; i < 200; ++i) m.on_packet(SimTime::millis(10 * i));
  EXPECT_NEAR(m.rate_Bps(SimTime::millis(1990)), 100000.0, 1.0);
}

TEST(WindowedRateMeter, MatchesTheByteSumFormulaBitForBit) {
  // The meter before it dropped per-slot sizes: a deque of (t, bytes),
  // the bytes after the first arrival over the span from it to now.
  struct ByteSumMeter {
    std::vector<std::pair<SimTime, std::int64_t>> window;
    void on_packet(SimTime t, std::int64_t bytes) {
      window.emplace_back(t, bytes);
      while (window.size() > WindowedRateMeter::kWindowPackets ||
             (window.size() >= 2 &&
              t - window.front().first > WindowedRateMeter::kHorizon)) {
        window.erase(window.begin());
      }
    }
    double rate_Bps(SimTime now) const {
      if (window.size() < 2) return 0.0;
      std::int64_t bytes = 0;
      for (const auto& a : window) bytes += a.second;
      bytes -= window.front().second;
      const SimTime span =
          std::max(now, window.back().first) - window.front().first;
      if (span <= SimTime::zero()) return 0.0;
      return static_cast<double>(bytes) / span.to_seconds();
    }
  };
  Rng rng{17};
  WindowedRateMeter m;
  ByteSumMeter ref;
  SimTime t = SimTime::zero();
  int reads = 0;
  for (int i = 0; i < 20000; ++i) {
    // Gaps from back-to-back to past the horizon, so both evictions run.
    const std::int64_t gap_ns = rng.uniform_int(0, 9) == 0
                                    ? rng.uniform_int(0, 5'000'000'000)
                                    : rng.uniform_int(0, 20'000'000);
    t += SimTime::nanos(gap_ns);
    m.on_packet(t);
    ref.on_packet(t, kDataPacketBytes);
    const SimTime now = t + SimTime::nanos(rng.uniform_int(0, 1'000'000));
    const double got = m.rate_Bps(now);
    const double want = ref.rate_Bps(now);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "arrival " << i << ": " << got << " vs " << want;
    ASSERT_EQ(m.has_estimate(), ref.window.size() >= 2);
    reads += want > 0.0;
  }
  EXPECT_GT(reads, 10000);
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
