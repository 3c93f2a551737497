#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tfmcc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, SubstreamsAreIndependentAndDeterministic) {
  Rng root{7};
  Rng s1 = root.substream(1);
  Rng s2 = root.substream(2);
  Rng s1_again = Rng{7}.substream(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s1.next_u64() == s2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01NeverZero) {
  Rng r{3};
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform01();
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

/// Rng's raw 64-bit stream as a standard uniform random bit generator.
struct RawBits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return rng.next_u64(); }
  Rng rng;
};

TEST(Rng, Uniform01MatchesStandardDistribution) {
  // The explicit conversion must reproduce the standard distribution bit
  // for bit: every golden output depends on this stream.
  Rng r{12};
  RawBits ref{Rng{12}};
  for (int i = 0; i < 1000000; ++i) {
    const double want =
        1.0 - std::uniform_real_distribution<double>{0.0, 1.0}(ref);
    ASSERT_EQ(r.uniform01(), want) << "draw " << i;
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng r{4};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng r{5};
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LE(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r{6};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng r{8};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r{9};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r{10};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricTrialsMean) {
  Rng r{11};
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric_trials(0.1));
  EXPECT_NEAR(sum / n, 10.0, 0.3);  // mean trials = 1/p
}

}  // namespace
}  // namespace tfmcc
