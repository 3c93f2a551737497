#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "tfrc/equation.hpp"

namespace tfmcc {
namespace {

namespace tm = tcp_model;

/// (packet bytes, rtt ms, loss rate) grid.
using EqParam = std::tuple<double, int, double>;

class EquationSweep : public ::testing::TestWithParam<EqParam> {};

TEST_P(EquationSweep, ThroughputIsPositiveAndFinite) {
  const auto [s, rtt_ms, p] = GetParam();
  const double x = tm::throughput_Bps(s, SimTime::millis(rtt_ms), p);
  EXPECT_GT(x, 0.0);
  EXPECT_TRUE(std::isfinite(x));
}

TEST_P(EquationSweep, FullInverseRoundTrips) {
  const auto [s, rtt_ms, p] = GetParam();
  const SimTime rtt = SimTime::millis(rtt_ms);
  const double rate = tm::throughput_Bps(s, rtt, p);
  EXPECT_NEAR(tm::loss_for_throughput(s, rtt, rate), p, p * 1e-3);
}

TEST_P(EquationSweep, FullModelBelowSimpleModel) {
  // The Padhye model includes timeout effects, so it never exceeds the
  // pure-AIMD Mathis bound (for b = 1 both share the sqrt term's constant
  // up to sqrt(2/3) vs sqrt(3/2) scaling; the RTO term only subtracts).
  const auto [s, rtt_ms, p] = GetParam();
  const SimTime rtt = SimTime::millis(rtt_ms);
  EXPECT_LE(tm::throughput_Bps(s, rtt, p),
            tm::simple_throughput_Bps(s, rtt, p) * 1.5 + 1.0);
}

TEST_P(EquationSweep, MoreLossNeverMeansMoreThroughput) {
  const auto [s, rtt_ms, p] = GetParam();
  const SimTime rtt = SimTime::millis(rtt_ms);
  EXPECT_LE(tm::throughput_Bps(s, rtt, p * 1.5),
            tm::throughput_Bps(s, rtt, p));
}

TEST_P(EquationSweep, LongerRttNeverMeansMoreThroughput) {
  const auto [s, rtt_ms, p] = GetParam();
  EXPECT_LE(tm::throughput_Bps(s, SimTime::millis(rtt_ms * 2), p),
            tm::throughput_Bps(s, SimTime::millis(rtt_ms), p));
}

TEST_P(EquationSweep, DelayedAckNeverFaster) {
  const auto [s, rtt_ms, p] = GetParam();
  const SimTime rtt = SimTime::millis(rtt_ms);
  EXPECT_LE(tm::throughput_Bps(s, rtt, p, 2.0), tm::throughput_Bps(s, rtt, p, 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EquationSweep,
    ::testing::Combine(::testing::Values(500.0, 1000.0, 1500.0),
                       ::testing::Values(10, 50, 100, 500),
                       ::testing::Values(0.0001, 0.001, 0.01, 0.05, 0.2)));

}  // namespace
}  // namespace tfmcc
