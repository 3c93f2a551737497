// Fixed-point equation backend vs the double-precision model: a dense
// (s, RTT, p) cross-check with a bounded relative error, the saturation
// contract below the table floor, reverse-lookup round trips (including
// the p -> 0 and p -> 1 edges), the integer EWMA's unit conventions, and
// the EquationBackend seam both scenarios and the sender wire through.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tfrc/equation.hpp"
#include "tfrc/equation_backend.hpp"
#include "tfrc/equation_fixed.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {
namespace {

namespace fp = fixedpoint;

double model_x(double s, std::int64_t rtt_us, double p) {
  return tcp_model::throughput_Bps(s, SimTime::micros(rtt_us), p);
}

TEST(EquationFixed, DenseCrossCheckWithinFivePercent) {
  // The acceptance bound for the ablation scenario, enforced here over a
  // denser grid than the scenario sweeps: every combination of packet
  // size, RTT and 160 log-spaced loss rates across both table segments.
  const double kPMin = 1e-4;
  const double kPMax = 1.0;
  const int kPoints = 160;
  double worst = 0.0;
  for (const std::uint32_t s : {256u, 1000u, 1500u, 8192u}) {
    for (const std::int64_t rtt_us : {2'000, 10'000, 40'000, 80'000,
                                      200'000, 500'000, 2'000'000}) {
      for (int i = 0; i < kPoints; ++i) {
        const double p =
            kPMin * std::pow(kPMax / kPMin,
                             static_cast<double>(i) / (kPoints - 1));
        const auto p_scaled = static_cast<std::uint32_t>(
            std::lround(p * fp::kPScale));
        const double x_fixed = static_cast<double>(
            fp::calc_x(s, static_cast<std::uint32_t>(rtt_us), p_scaled));
        // Compare at the quantised p the fixed backend actually evaluated,
        // so the check isolates table error from input rounding.
        const double p_q = static_cast<double>(p_scaled) / fp::kPScale;
        const double x_float = model_x(s, rtt_us, p_q);
        const double abs_err = std::fabs(x_fixed - x_float);
        // The output is an integer bytes/s, so single-digit rates carry up
        // to 1 B/s of truncation on top of the table error.
        if (abs_err <= 1.0) continue;
        const double rel = abs_err / x_float;
        worst = std::max(worst, rel);
        ASSERT_LT(rel, 0.05) << "s=" << s << " rtt_us=" << rtt_us
                             << " p=" << p_q << " float=" << x_float
                             << " fixed=" << x_fixed;
      }
    }
  }
  // The table + interpolation should be far better than the bound in
  // practice; guard against a silent precision collapse.
  EXPECT_LT(worst, 0.03);
}

TEST(EquationFixed, SaturatesBelowTableFloor) {
  // p below kSmallestP clamps to the floor — the kernel's TFRC_SMALLEST_P
  // contract — instead of extrapolating off the table.
  const std::uint64_t at_floor = fp::calc_x(1000, 100'000, fp::kSmallestP);
  EXPECT_EQ(fp::calc_x(1000, 100'000, 1), at_floor);
  EXPECT_EQ(fp::calc_x(1000, 100'000, 0), at_floor);
  // And above kPScale clamps to p = 1.
  EXPECT_EQ(fp::calc_x(1000, 100'000, fp::kPScale + 500'000),
            fp::calc_x(1000, 100'000, fp::kPScale));
}

TEST(EquationFixed, ZeroRttIsTreatedAsOneMicrosecond) {
  EXPECT_EQ(fp::calc_x(1000, 0, 10'000), fp::calc_x(1000, 1, 10'000));
  EXPECT_GT(fp::calc_x(1000, 0, 10'000), 0u);
}

TEST(EquationFixed, ReverseLookupRoundTripsAcrossTheTable) {
  for (std::uint32_t p = fp::kSmallestP; p <= fp::kPScale;
       p = p < 1000 ? p + 50 : p + p / 7) {
    const std::uint32_t back = fp::calc_x_reverse_lookup(fp::lookup_f(p));
    const double rel = std::fabs(static_cast<double>(back) -
                                 static_cast<double>(p)) /
                       static_cast<double>(p);
    EXPECT_LT(rel, 0.02) << "p_scaled=" << p << " round-tripped to " << back;
  }
}

TEST(EquationFixed, ReverseLookupEdges) {
  // p -> 0 edge: any f below the table's first entry saturates to the
  // smallest representable p.
  EXPECT_EQ(fp::calc_x_reverse_lookup(0), fp::kSmallestP);
  EXPECT_EQ(fp::calc_x_reverse_lookup(1), fp::kSmallestP);
  // p -> 1 edge: f at or above the table ceiling saturates to p = 1.
  const std::uint64_t f_max = fp::lookup_f(fp::kPScale);
  EXPECT_EQ(fp::calc_x_reverse_lookup(f_max), fp::kPScale);
  EXPECT_EQ(fp::calc_x_reverse_lookup(f_max * 10),
            fp::kPScale);
  EXPECT_EQ(fp::calc_x_reverse_lookup(
                std::numeric_limits<std::uint64_t>::max()),
            fp::kPScale);
}

TEST(EquationFixed, LossForRateInvertsCalcX) {
  for (const std::uint32_t p :
       {200u, 1'000u, 10'000u, 50'000u, 120'000u, 400'000u}) {
    const std::uint64_t rate = fp::calc_x(1000, 80'000, p);
    const std::uint32_t back = fp::loss_for_rate(1000, 80'000, rate);
    const double rel = std::fabs(static_cast<double>(back) -
                                 static_cast<double>(p)) /
                       static_cast<double>(p);
    EXPECT_LT(rel, 0.03) << "p_scaled=" << p << " -> rate " << rate
                         << " -> " << back;
  }
}

TEST(EquationFixed, BatchMatchesScalar) {
  std::vector<std::uint32_t> rtts{1, 2'000, 40'000, 40'000, 500'000};
  std::vector<std::uint32_t> ps{0, 100, 5'000, 250'000, fp::kPScale};
  std::vector<std::uint64_t> out(rtts.size());
  fp::calc_x_batch(1000, rtts.data(), ps.data(), out.data(), rtts.size());
  for (std::size_t i = 0; i < rtts.size(); ++i) {
    EXPECT_EQ(out[i], fp::calc_x(1000, rtts[i], ps[i])) << "i=" << i;
  }
}

TEST(EquationFixed, EwmaUnitsAndBootstrap) {
  // weight is tenths of history retained: 9 keeps 90% of the average.
  EXPECT_EQ(fp::ewma(1000, 2000, 9), 1100u);
  EXPECT_EQ(fp::ewma(1000, 2000, 5), 1500u);
  EXPECT_EQ(fp::ewma(1000, 2000, 0), 2000u);
  // A zero average means "no estimate yet" and bootstraps to the sample.
  EXPECT_EQ(fp::ewma(0, 4242, 9), 4242u);
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

TEST(EquationBackendSeam, FixedBackendContract) {
  const EquationBackend& b = fixed_equation_backend();
  EXPECT_EQ(b.name(), "fixed");
  // No loss -> unbounded rate, same sentinel the receiver logic relies on.
  EXPECT_TRUE(std::isinf(b.throughput_Bps(1000.0, SimTime::millis(80), 0.0)));
  // In range, the backend agrees with the raw fixed-point engine.
  EXPECT_EQ(b.throughput_Bps(1000.0, SimTime::millis(80), 0.02),
            static_cast<double>(fp::calc_x(1000, 80'000, 20'000)));
  // Inverse direction returns a probability in (0, 1].
  const double p = b.loss_for_throughput(1000.0, SimTime::millis(80), 1e5);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(EquationBackendSeam, BatchAgreesWithScalarInterface) {
  const EquationBackend& b = fixed_equation_backend();
  std::vector<SimTime> rtts{SimTime::millis(20), SimTime::millis(80),
                            SimTime::millis(400)};
  std::vector<double> ps{0.0, 1e-3, 0.25};
  std::vector<double> out(rtts.size());
  b.throughput_batch(1000.0, rtts.data(), ps.data(), out.data(),
                     rtts.size());
  for (std::size_t i = 0; i < rtts.size(); ++i) {
    EXPECT_EQ(out[i], b.throughput_Bps(1000.0, rtts[i], ps[i])) << "i=" << i;
  }
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

TEST(EquationBackendSeam, RegistryFindsBothBackendsAndRejectsUnknown) {
  EXPECT_EQ(find_equation_backend("float"), &float_equation_backend());
  EXPECT_EQ(find_equation_backend("fixed"), &fixed_equation_backend());
  EXPECT_EQ(find_equation_backend("bogus"), nullptr);
  EXPECT_EQ(find_equation_backend(""), nullptr);
}

}  // namespace
}  // namespace tfmcc
