#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <vector>

#include "util/arena.hpp"

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

TEST(Rng, UniformMatchesStandardDistribution) {
  // Every link's jitter is one such draw per copy: bit equality with the
  // standard distribution keeps every golden output.
  constexpr double kRanges[][2] = {
      {0.0, 1.0},   {2.0, 3.0},    {-3.0, 7.5},  {0.05, 0.10},
      {1e3, 1e7},   {-8.0, 0.0},   {5.0, 5.0},   {0.3, 0.7},
      {0.0, 1e-300}, {-1e300, 1e300}, {0.1, 0.3}, {1.0, 3.0}};
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (const auto& range : kRanges) {
      Rng r{seed};
      RawBits ref{Rng{seed}};
      std::uniform_real_distribution<double> dist{range[0], range[1]};
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(r.uniform(range[0], range[1]), dist(ref))
            << "seed " << seed << " range [" << range[0] << ", " << range[1]
            << "] draw " << i;
      }
    }
  }
}

/// A generator that yields one fixed word.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
  std::uint64_t word;
};

TEST(Rng, CanonicalMatchesStandardAtEdgeWords) {
  // The words around 0, the sign bit and the top, where the rounding to 53
  // bits and the clamp below 1 decide the result.
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  const std::uint64_t words[] = {0,
                                 1,
                                 std::uint64_t{1} << 63,
                                 (std::uint64_t{1} << 63) - 1,
                                 (std::uint64_t{1} << 63) + 1024,
                                 kTop - 1023,  // 2^64 - 1024
                                 kTop - 2047,  // 2^64 - 2048
                                 kTop - 2048,
                                 kTop - 1024,
                                 kTop};
  constexpr double kRanges[][2] = {
      {0.0, 1.0}, {-3.0, 7.5}, {1e3, 1e7}, {5.0, 5.0}, {-1e300, 1e300}};
  for (const std::uint64_t w : words) {
    FixedWord g{w};
    const double c = Rng::canonical(w);
    ASSERT_EQ(c, (std::generate_canonical<double, 53>(g))) << "word " << w;
    ASSERT_LT(c, 1.0) << "word " << w;
    for (const auto& range : kRanges) {
      std::uniform_real_distribution<double> dist{range[0], range[1]};
      // Rng::uniform's expression on this word.
      ASSERT_EQ(c * (range[1] - range[0]) + range[0], dist(g))
          << "word " << w << " range [" << range[0] << ", " << range[1]
          << "]";
    }
  }
}

/// The skip test that Rng::uniform01_floor bounds: uniform01's value on
/// word w lies above u.
bool above(std::uint64_t w, double u) { return 1.0 - Rng::canonical(w) > u; }

/// The least word that fails above(., u), by bisection over the words (the
/// test only turns from true to false as w grows).  Needs a u in
/// (2^-53, 1): word 0 passes and the top word fails.
std::uint64_t first_failing_word(double u) {
  std::uint64_t lo = 0;                  // passes
  std::uint64_t hi = ~std::uint64_t{0};  // fails
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (above(mid, u) ? lo : hi) = mid;
  }
  return hi;
}

TEST(Rng, Uniform01FloorIsSoundAndTight) {
  std::vector<double> us = {0x1p-60,
                            0x1p-53,
                            0x1p-52,
                            0.5,
                            std::nextafter(0.5, 0.0),
                            std::nextafter(0.5, 1.0),
                            1.0 - 0x1p-53,
                            0.0,
                            1.0,
                            2.0};
  std::mt19937_64 gen{99};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  for (int i = 0; i < 200000; ++i) {
    // A third skewed towards 0, where the short-list's ceilings sit.
    us.push_back(i % 3 == 0 ? std::exp2(-60.0 * unit(gen)) : unit(gen));
  }
  int tight_checked = 0;
  for (const double u : us) {
    const std::uint64_t w0 = Rng::uniform01_floor(u);
    const std::uint64_t from = w0 < 4096 ? 0 : w0 - 4096;
    std::uint64_t misses = 0;  // words below the floor not above u
    for (std::uint64_t w = from; w < w0; ++w) misses += !above(w, u);
    ASSERT_EQ(misses, 0u) << "u " << u << " floor " << w0;
    if (u > 0x1p-53 && u < 1.0) {
      const std::uint64_t boundary = first_failing_word(u);
      ASSERT_LE(w0, boundary) << "u " << u;
      ASSERT_LE(boundary - w0, std::uint64_t{1} << 16)
          << "u " << u << " floor " << w0 << " boundary " << boundary;
      ++tight_checked;
    }
  }
  EXPECT_GT(tight_checked, 190000);
}

TEST(Rng, Uniform01FloorEdges) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  // No word lies above u >= 1 (or NaN): nothing is filtered.
  EXPECT_EQ(Rng::uniform01_floor(1.0), 0u);
  EXPECT_EQ(Rng::uniform01_floor(2.0), 0u);
  EXPECT_EQ(Rng::uniform01_floor(std::nan("")), 0u);
  // Every word lies above u < 2^-53: everything is filtered, the top word
  // (which no floor covers) by the exact test.
  for (const double u : {-1.0, 0.0, 0x1p-60, std::nextafter(0x1p-53, 0.0)}) {
    EXPECT_EQ(Rng::uniform01_floor(u), kTop) << "u " << u;
    EXPECT_TRUE(above(kTop, u)) << "u " << u;
  }
  EXPECT_LT(Rng::uniform01_floor(0x1p-53), kTop);
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

// Mt19937_64 must be std::mt19937_64 bit for bit: every golden output
// depends on this stream.

/// Crosses three refills of the 312-word state.
constexpr int kExactDraws = 3 * 312 + 17;

std::vector<std::uint64_t> exactness_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 5489, ~std::uint64_t{0}};
  std::uint64_t s = 0;
  for (int i = 0; i < 1000; ++i) {  // splitmix64
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    seeds.push_back(z ^ (z >> 31));
  }
  return seeds;
}

/// The seed Rng{seed} hands its engine: the splitmix64 finalizer of seed.
std::uint64_t engine_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(Rng, CopiesBeforeAndAfterFirstDrawStayInStep) {
  // On the heap and in an arena: a copy taken before the engine exists
  // starts the stream from the top, one taken mid-stream continues from
  // the copied position, and neither disturbs the original.
  Arena arena;
  for (Arena* where : {static_cast<Arena*>(nullptr), &arena}) {
    Rng rng{77, where};
    const Rng before = rng;
    std::mt19937_64 ref{engine_seed(77)};
    for (int i = 0; i < 400; ++i) ASSERT_EQ(rng.next_u64(), ref());
    Rng after{1};
    after = rng;  // copy-assignment over a heap stream
    Rng copy = rng;
    Rng moved = std::move(copy);
    std::mt19937_64 ref_before{engine_seed(77)};
    Rng from_before = before;
    for (int i = 0; i < kExactDraws; ++i) {
      const std::uint64_t want = ref();
      ASSERT_EQ(rng.next_u64(), want) << "original, draw " << i;
      ASSERT_EQ(after.next_u64(), want) << "copy after, draw " << i;
      ASSERT_EQ(moved.next_u64(), want) << "moved copy, draw " << i;
      ASSERT_EQ(from_before.next_u64(), ref_before())
          << "copy before, draw " << i;
    }
  }
}

static_assert(sizeof(Rng) <= 32, "an idle stream stays small");

TEST(Rng, ShortStreamsKeepToTheirPrefixAndThe33rdDrawBuildsTheEngine) {
  // Footprint contract: a stream that draws at most kPrefixWords words
  // holds a 256-byte prefix, not the 2.5 KB engine.
  Arena arena;
  Rng rng{5, &arena};
  Rng child = rng.substream(3);
  EXPECT_EQ(arena.reserved_bytes(), 0u);
  child.uniform01();  // a substream keeps its state where its parent does
  EXPECT_GT(arena.reserved_bytes(), 0u);
  std::vector<Rng> streams;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    streams.push_back(rng.substream(id));
    for (std::uint64_t i = 0; i <= id % Rng::kPrefixWords; ++i) {
      streams.back().next_u64();
    }
  }
  EXPECT_LT(arena.reserved_bytes(), std::size_t{512} << 10);

  Arena own;
  Rng s{5, &own};
  for (std::size_t i = 0; i < Rng::kPrefixWords; ++i) s.next_u64();
  const auto mark = reinterpret_cast<std::uintptr_t>(own.allocate(1, 1));
  s.next_u64();  // the 33rd draw
  const auto engine = reinterpret_cast<std::uintptr_t>(&s.engine());
  const auto end = reinterpret_cast<std::uintptr_t>(own.allocate(1, 1));
  EXPECT_GT(engine, mark);  // built in the arena, after the prefix
  EXPECT_LT(engine, end);
  EXPECT_GE(end - engine, sizeof(Mt19937_64));
  EXPECT_EQ(&s.engine(), &s.engine());
}

// Known answers for the prefix: every draw, wherever the stream serves it
// from, equals std::mt19937_64 seeded with the Rng's engine seed and
// driving the same std distribution.

TEST(Mt19937_64, FirstWordsAreTheEnginesFirstOutputs) {
  for (const std::uint64_t seed : exactness_seeds()) {
    for (const std::size_t k : {1, 32, 156}) {
      std::vector<std::uint64_t> words(k);
      Mt19937_64::first_words(engine_seed(seed), k, words.data());
      std::mt19937_64 ref{engine_seed(seed)};
      for (std::size_t j = 0; j < k; ++j) {
        ASSERT_EQ(words[j], ref()) << "seed " << seed << " k " << k
                                   << " word " << j;
      }
    }
  }
}

/// Every kind of draw an Rng offers.
enum class Draw {
  kU64,
  kUniform01,
  kUniform,
  kUniformIntSmall,
  kUniformIntFull,
  kBernoulli,
  kExponential
};
constexpr Draw kDraws[] = {Draw::kU64,           Draw::kUniform01,
                           Draw::kUniform,       Draw::kUniformIntSmall,
                           Draw::kUniformIntFull, Draw::kBernoulli,
                           Draw::kExponential};
constexpr std::int64_t kMinI64 = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxI64 = std::numeric_limits<std::int64_t>::max();

/// One draw of `kind` from the stream, as bits.
std::uint64_t draw(Draw kind, Rng& rng) {
  switch (kind) {
    case Draw::kU64:
      return rng.next_u64();
    case Draw::kUniform01:
      return std::bit_cast<std::uint64_t>(rng.uniform01());
    case Draw::kUniform:
      return std::bit_cast<std::uint64_t>(rng.uniform(-3.0, 7.5));
    case Draw::kUniformIntSmall:
      return static_cast<std::uint64_t>(rng.uniform_int(8, 48));
    case Draw::kUniformIntFull:
      return static_cast<std::uint64_t>(rng.uniform_int(kMinI64, kMaxI64));
    case Draw::kBernoulli:
      return rng.bernoulli(0.3);
    case Draw::kExponential:
      return std::bit_cast<std::uint64_t>(rng.exponential(5.0));
  }
  return 0;
}

/// The same draw through the std distribution on the reference engine.
std::uint64_t draw(Draw kind, std::mt19937_64& ref) {
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  switch (kind) {
    case Draw::kU64:
      return ref();
    case Draw::kUniform01:
      return std::bit_cast<std::uint64_t>(1.0 - unit(ref));
    case Draw::kUniform:
      return std::bit_cast<std::uint64_t>(
          std::uniform_real_distribution<double>{-3.0, 7.5}(ref));
    case Draw::kUniformIntSmall:
      return static_cast<std::uint64_t>(
          std::uniform_int_distribution<std::int64_t>{8, 48}(ref));
    case Draw::kUniformIntFull:
      return static_cast<std::uint64_t>(
          std::uniform_int_distribution<std::int64_t>{kMinI64, kMaxI64}(ref));
    case Draw::kBernoulli:
      return std::bernoulli_distribution{0.3}(ref);
    case Draw::kExponential:
      return std::bit_cast<std::uint64_t>(
          std::exponential_distribution<double>{0.2}(ref));
  }
  return 0;
}

TEST(Rng, EveryDrawKindMatchesTheStandardEngineAcrossThePrefix) {
  // n draws of one kind, then raw words past the prefix and one refill.
  Arena arena;
  for (Arena* where : {static_cast<Arena*>(nullptr), &arena}) {
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{77}}) {
      for (const Draw kind : kDraws) {
        for (int n = 0; n <= 40; ++n) {
          Rng rng{seed, where};
          std::mt19937_64 ref{engine_seed(seed)};
          for (int i = 0; i < n; ++i) {
            ASSERT_EQ(draw(kind, rng), draw(kind, ref))
                << "kind " << static_cast<int>(kind) << " n " << n
                << " draw " << i;
          }
          for (int i = 0; i < 320; ++i) {
            ASSERT_EQ(rng.next_u64(), ref())
                << "kind " << static_cast<int>(kind) << " n " << n
                << " word after " << i;
          }
        }
      }
    }
  }
}

TEST(Rng, MixedDrawKindsMatchTheStandardEngine) {
  Arena arena;
  for (Arena* where : {static_cast<Arena*>(nullptr), &arena}) {
    Rng rng{2024, where};
    std::mt19937_64 ref{engine_seed(2024)};
    for (int i = 0; i < kExactDraws; ++i) {
      const Draw kind = kDraws[(i * 5 + i / 7) % std::size(kDraws)];
      ASSERT_EQ(draw(kind, rng), draw(kind, ref)) << "draw " << i;
    }
  }
}

TEST(Rng, EngineTakenMidPrefixContinuesTheStream) {
  // The engine skips the words the prefix has served; draws from it and
  // from the Rng advance one stream.
  Arena arena;
  for (Arena* where : {static_cast<Arena*>(nullptr), &arena}) {
    for (const int served : {0, 1, 31, 32}) {
      Rng rng{9, where};
      std::mt19937_64 ref{engine_seed(9)};
      for (int i = 0; i < served; ++i) ASSERT_EQ(rng.next_u64(), ref());
      Mt19937_64& gen = rng.engine();
      for (int i = 0; i < kExactDraws; ++i) {
        ASSERT_EQ(i % 3 == 0 ? rng.next_u64() : gen(), ref())
            << "served " << served << " draw " << i;
      }
    }
  }
}

TEST(Rng, EngineCopyContinuesTheStreamWithoutMovingIt) {
  // engine_copy() at every point around the prefix and after the engine is
  // built: the copy draws what the stream would draw next, and the stream
  // itself stays where it was.
  Arena arena;
  for (Arena* where : {static_cast<Arena*>(nullptr), &arena}) {
    for (const int served : {0, 1, 31, 32, 33, 400}) {
      Rng rng{9, where};
      std::mt19937_64 ref{engine_seed(9)};
      for (int i = 0; i < served; ++i) ASSERT_EQ(rng.next_u64(), ref());
      Mt19937_64 copy = rng.engine_copy();
      std::mt19937_64 ref_copy = ref;
      for (int i = 0; i < kExactDraws; ++i) {
        ASSERT_EQ(copy(), ref_copy()) << "served " << served << " draw " << i;
      }
      for (int i = 0; i < 40; ++i) {
        ASSERT_EQ(rng.next_u64(), ref()) << "served " << served;
      }
    }
  }
}

TEST(Rng, CopiesTakenMidPrefixStayInStep) {
  // Copy, move and copy-assignment (over a drawn heap stream) at every
  // point around the prefix; none disturbs the original.
  Arena arena;
  for (Arena* where : {static_cast<Arena*>(nullptr), &arena}) {
    for (const int served : {0, 1, 17, 31, 32, 33}) {
      Rng rng{31, where};
      std::mt19937_64 ref{engine_seed(31)};
      for (int i = 0; i < served; ++i) ASSERT_EQ(rng.next_u64(), ref());
      Rng copy = rng;
      Rng moved_from = rng;
      Rng moved = std::move(moved_from);
      Rng assigned{1};
      assigned.next_u64();
      assigned = rng;
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(rng.next_u64(), want) << "served " << served << " " << i;
        ASSERT_EQ(copy.next_u64(), want) << "served " << served << " " << i;
        ASSERT_EQ(moved.next_u64(), want) << "served " << served << " " << i;
        ASSERT_EQ(assigned.next_u64(), want)
            << "served " << served << " " << i;
      }
    }
  }
}

TEST(Rng, SubstreamOfUndrawnStreamEqualsOneTakenAfterDraws) {
  Arena arena;
  for (Arena* where : {static_cast<Arena*>(nullptr), &arena}) {
    const Rng fresh{2024, where};
    Rng drawn{2024, where};
    for (int i = 0; i < 1000; ++i) drawn.uniform01();
    for (const std::uint64_t id : {0, 1, 99}) {
      Rng a = fresh.substream(id);
      Rng b = drawn.substream(id);
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64())
            << "stream " << id << ", draw " << i;
      }
    }
  }
}

TEST(Mt19937_64, MatchesStandardEngine) {
  for (const std::uint64_t seed : exactness_seeds()) {
    Mt19937_64 ours{seed};
    std::mt19937_64 ref{seed};
    for (int i = 0; i < kExactDraws; ++i) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64, CopiesContinueInStep) {
  for (const int at : {0, 311, 312}) {
    Mt19937_64 ours{42};
    std::mt19937_64 ref{42};
    for (int i = 0; i < at; ++i) ours();
    ref.discard(static_cast<unsigned long long>(at));
    Mt19937_64 copy = ours;
    for (int i = 0; i < kExactDraws; ++i) {
      ASSERT_EQ(copy(), ref()) << "copied at " << at << ", draw " << i;
    }
  }
}

TEST(Mt19937_64, ScanStopsWhereAnOperatorLoopWouldAndKeepsItsPlace) {
  // scan(n, floor, word) against the loop it replaces: draw up to n words,
  // stop at the first one >= floor.  Same hit position, same word, and the
  // same next draw, from engine offsets and over lengths that cross the
  // 312-word refill.
  static constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t floors[] = {0,
                                  kMax,
                                  kMax - 5,
                                  std::uint64_t{1} << 63,
                                  kMax - kMax / 100,  // a hit per ~100 words
                                  kMax - kMax / 4000, 1};
  const std::size_t lengths[] = {0, 1, 2, 155, 311, 312, 313, 624, 700, 5000};
  Rng gen{909};
  int hits = 0;
  int misses = 0;
  for (const std::uint64_t floor : floors) {
    for (const std::size_t n : lengths) {
      for (const int offset : {0, 1, 200, 311, 312, 313, 623}) {
        const std::uint64_t seed = gen.next_u64();
        Mt19937_64 fast{seed};
        Mt19937_64 slow{seed};
        for (int i = 0; i < offset; ++i) {
          fast();
          slow();
        }
        std::uint64_t word = 0;
        const std::size_t pos = fast.scan(n, floor, word);
        std::size_t want = n;
        std::uint64_t want_word = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t w = slow();
          if (w >= floor) {
            want = i;
            want_word = w;
            break;
          }
        }
        ASSERT_EQ(pos, want) << "floor " << floor << " n " << n << " offset "
                             << offset;
        if (want < n) {
          ASSERT_EQ(word, want_word);
          ++hits;
        } else {
          ++misses;
        }
        ASSERT_EQ(fast(), slow()) << "floor " << floor << " n " << n
                                  << " offset " << offset;
      }
    }
  }
  EXPECT_GT(hits, 100);
  EXPECT_GT(misses, 100);

  // A floor equal to a word ahead in the stream: the scan stops at that
  // word at the latest, so "at or above" is tested on equality itself.
  for (const std::size_t ahead : {std::size_t{0}, std::size_t{1},
                                  std::size_t{311}, std::size_t{700}}) {
    Mt19937_64 fast{ahead + 5};
    Mt19937_64 peek = fast;
    for (std::size_t i = 0; i < ahead; ++i) peek();
    const std::uint64_t floor = peek();
    Mt19937_64 slow = fast;
    std::size_t want = 0;
    while (slow() < floor) ++want;
    std::uint64_t word = 0;
    ASSERT_EQ(fast.scan(ahead + 1, floor, word), want) << "ahead " << ahead;
    ASSERT_GE(word, floor);
    ASSERT_EQ(fast(), slow()) << "ahead " << ahead;
  }

  // Scanned to the end in steps, as a round draws: every hit of a plain
  // loop, in order, and the same position afterwards.
  for (const std::uint64_t floor : floors) {
    Mt19937_64 fast{floor};
    Mt19937_64 slow{floor};
    const std::size_t n = 3000;
    std::vector<std::size_t> got, want;
    std::size_t pos = 0;
    std::uint64_t word = 0;
    while ((pos += fast.scan(n - pos, floor, word)) < n) got.push_back(pos++);
    for (std::size_t i = 0; i < n; ++i) {
      if (slow() >= floor) want.push_back(i);
    }
    ASSERT_EQ(got, want) << "floor " << floor;
    ASSERT_EQ(fast(), slow()) << "floor " << floor;
  }
}

TEST(Mt19937_64, DrivesStandardDistributionsLikeTheStandardEngine) {
  // Each distribution Rng uses, on both engines; ASSERT_EQ on doubles is
  // bit equality, not a tolerance.
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7},
                                   std::uint64_t{5489}, ~std::uint64_t{0}}) {
    Mt19937_64 ours{seed};
    std::mt19937_64 ref{seed};
    for (int i = 0; i < kExactDraws; ++i) {
      std::uniform_real_distribution<double> real{-3.0, 7.5};
      ASSERT_EQ(real(ours), real(ref)) << "uniform_real, draw " << i;
      std::uniform_int_distribution<std::int64_t> small{0, 3};
      ASSERT_EQ(small(ours), small(ref)) << "uniform_int, draw " << i;
      std::uniform_int_distribution<std::int64_t> full{
          std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max()};
      ASSERT_EQ(full(ours), full(ref)) << "full-range uniform_int, draw " << i;
      std::bernoulli_distribution coin{0.3};
      ASSERT_EQ(coin(ours), coin(ref)) << "bernoulli, draw " << i;
      std::exponential_distribution<double> expo{0.2};
      ASSERT_EQ(expo(ours), expo(ref)) << "exponential, draw " << i;
    }
  }
}

}  // namespace
}  // namespace tfmcc
