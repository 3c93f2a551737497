#include "tfrc/equation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tfrc/equation_backend.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;
namespace tm = tcp_model;

TEST(Equation, ZeroLossIsInfinite) {
  EXPECT_TRUE(std::isinf(tm::throughput_Bps(1000, 100_ms, 0.0)));
  EXPECT_TRUE(std::isinf(tm::simple_throughput_Bps(1000, 100_ms, 0.0)));
}

TEST(Equation, KnownOperatingPoint) {
  // The paper's §3 anchor: s=1000 B, RTT=50 ms, p=10% -> fair rate around
  // 300 kbit/s.
  const double rate = tm::throughput_Bps(1000, 50_ms, 0.10);
  const double kbps = rate * 8.0 / 1000.0;
  EXPECT_GT(kbps, 200.0);
  EXPECT_LT(kbps, 400.0);
}

TEST(Equation, MonotonicallyDecreasingInLoss) {
  double prev = tm::throughput_Bps(1000, 100_ms, 1e-6);
  for (double p = 1e-5; p <= 1.0; p *= 3.0) {
    const double cur = tm::throughput_Bps(1000, 100_ms, p);
    EXPECT_LT(cur, prev) << "p=" << p;
    prev = cur;
  }
}

TEST(Equation, ScalesInverselyWithRtt) {
  const double x1 = tm::throughput_Bps(1000, 50_ms, 0.01);
  const double x2 = tm::throughput_Bps(1000, 100_ms, 0.01);
  EXPECT_NEAR(x1 / x2, 2.0, 1e-9);  // both terms scale linearly in R
}

TEST(Equation, ScalesLinearlyWithPacketSize) {
  const double x1 = tm::throughput_Bps(500, 50_ms, 0.01);
  const double x2 = tm::throughput_Bps(1000, 50_ms, 0.01);
  EXPECT_NEAR(x2 / x1, 2.0, 1e-9);
}

TEST(Equation, InverseRoundTripFullModel) {
  for (double p : {0.001, 0.01, 0.05, 0.2}) {
    const double rate = tm::throughput_Bps(1000, 80_ms, p);
    const double p_back = tm::loss_for_throughput(1000, 80_ms, rate);
    EXPECT_NEAR(p_back, p, p * 1e-4) << "p=" << p;
  }
}

TEST(Equation, InverseClampsExtremes) {
  // Absurdly high target rate -> minimal loss.
  EXPECT_DOUBLE_EQ(tm::loss_for_throughput(1000, 100_ms, 1e15),
                   tm::kMinLossRate);
  // Zero / negative rate -> total loss.
  EXPECT_DOUBLE_EQ(tm::loss_for_throughput(1000, 100_ms, 0.0), 1.0);
}

TEST(Equation, SimpleModelMatchesMathisForm) {
  const double s = 1000, p = 0.01;
  const double expect = s * std::sqrt(1.5) / (0.1 * std::sqrt(p));
  EXPECT_NEAR(tm::simple_throughput_Bps(s, 100_ms, p), expect, 1e-6);
}

TEST(Equation, LossEventsPerRttPeaksNearPointOneThree) {
  // Appendix A / fig. 17: max_p L(p) ~ 0.13 loss events per RTT (paper's
  // b = 2 model).
  double max_l = 0.0;
  for (double p = 1e-4; p <= 1.0; p *= 1.05) {
    max_l = std::max(max_l, tm::loss_events_per_rtt(p));
  }
  EXPECT_GT(max_l, 0.10);
  EXPECT_LT(max_l, 0.16);
}

TEST(Equation, LossEventsPerRttIndependentOfScale) {
  // L(p) must not depend on the packet size / RTT used internally.
  EXPECT_NEAR(tm::loss_events_per_rtt(0.01, 1.0),
              0.01 * tm::throughput_Bps(1000, 100_ms, 0.01) * 0.1 / 1000.0,
              1e-12);
}

TEST(Equation, DelayedAckModelIsSlower) {
  // b = 2 halves the per-RTT window growth: throughput drops by ~sqrt(2).
  const double x1 = tm::throughput_Bps(1000, 100_ms, 0.01, 1.0);
  const double x2 = tm::throughput_Bps(1000, 100_ms, 0.01, 2.0);
  EXPECT_GT(x1 / x2, 1.2);
  EXPECT_LT(x1 / x2, 1.5);
}

TEST(EquationBackendSeam, FloatBackendMatchesModelExactly) {
  const EquationBackend& b = float_equation_backend();
  EXPECT_EQ(b.name(), "float");
  for (const double p : {1e-6, 1e-3, 0.05, 0.3}) {
    EXPECT_EQ(b.throughput_Bps(1000.0, SimTime::millis(80), p),
              tcp_model::throughput_Bps(1000.0, SimTime::millis(80), p));
    EXPECT_EQ(b.loss_for_throughput(1000.0, SimTime::millis(80), 1e5),
              tcp_model::loss_for_throughput(1000.0, SimTime::millis(80),
                                             1e5));
  }
  EXPECT_TRUE(std::isinf(b.throughput_Bps(1000.0, SimTime::millis(80), 0.0)));
}

TEST(EquationBackendSeam, BatchAgreesWithScalarInterface) {
  std::vector<SimTime> rtts{SimTime::millis(20), SimTime::millis(80),
                            SimTime::millis(400)};
  std::vector<double> ps{0.0, 1e-3, 0.25};
  std::vector<double> out(rtts.size());
  const EquationBackend& f = float_equation_backend();
  f.throughput_batch(1000.0, rtts.data(), ps.data(), out.data(),
                     rtts.size());
  for (std::size_t i = 0; i < rtts.size(); ++i) {
    EXPECT_EQ(out[i], f.throughput_Bps(1000.0, rtts[i], ps[i])) << "i=" << i;
  }
}

TEST(EquationBackendSeam, FloatBatchIsBitIdenticalToScalar) {
  // The float batch hoists the p-only factors across runs of equal p; the
  // modeled tier's golden outputs need it to equal the scalar call bit for
  // bit, including the p <= 0 (+inf) and p > 1 (clamped) edges.
  const EquationBackend& f = float_equation_backend();
  Rng rng{31};
  const std::size_t n = 20000;
  std::vector<SimTime> rtts(n);
  std::vector<double> ps(n);
  double p = 0.01;
  for (std::size_t i = 0; i < n; ++i) {
    rtts[i] = SimTime::nanos(rng.uniform_int(1, 3'000'000'000));
    // Runs of equal p (the block's shared-p shape) broken by fresh draws.
    if (rng.bernoulli(0.2)) {
      switch (rng.uniform_int(0, 5)) {
        case 0: p = 0.0; break;
        case 1: p = -rng.uniform01(); break;
        case 2: p = 1.0 + 3.0 * rng.uniform01(); break;
        default: p = std::pow(10.0, rng.uniform(-8.0, 0.0)); break;
      }
    }
    ps[i] = p;
  }
  std::vector<double> out(n);
  f.throughput_batch(1000.0, rtts.data(), ps.data(), out.data(), n);
  int infinite = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double want = f.throughput_Bps(1000.0, rtts[i], ps[i]);
    ASSERT_EQ(std::memcmp(&out[i], &want, sizeof want), 0)
        << "i=" << i << " p=" << ps[i] << " batch=" << out[i]
        << " scalar=" << want;
    infinite += std::isinf(out[i]);
  }
  EXPECT_GT(infinite, 0);  // the p <= 0 edge was exercised
}

}  // namespace
}  // namespace tfmcc
