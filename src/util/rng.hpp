#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>

#include "util/arena.hpp"

namespace tfmcc {

/// MT19937-64: the generator, seeding and output stream of
/// `std::mt19937_64`, bit for bit.
///
/// libstdc++'s state refill picks the twist constant with a branch on the
/// low bit of random data, which mispredicts on about half of all words.
/// This refill selects it with a mask instead, and splits the loop where
/// the x[k + m] index wraps so the first half vectorises.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) { seed_words(seed, x_, kN); }

  result_type operator()() {
    if (p_ >= kN) refill();
    return temper(x_[p_++]);
  }

  /// Draws up to `n` words and stops after the first one at or above
  /// `floor`: stores it in `word` and returns its position in [0, n), or
  /// returns n with all n words drawn.  The same words as n calls of
  /// operator(), with the cursor held in a local between refills.
  std::size_t scan(std::size_t n, result_type floor, result_type& word) {
    std::size_t p = p_;
    std::size_t drawn = 0;
    while (drawn < n) {
      if (p >= kN) {
        refill();
        p = 0;
      }
      const std::size_t start = p;
      const std::size_t end = p + std::min(n - drawn, kN - p);
      for (; p < end; ++p) {
        const result_type w = temper(x_[p]);
        if (w >= floor) {
          p_ = p + 1;
          word = w;
          return drawn + (p - start);
        }
      }
      drawn += end - start;
    }
    p_ = p;
    return n;
  }

  /// The engine's first `k` outputs (k <= n - m = 156), without building
  /// its state.  Word j < n - m of the first refill depends only on the
  /// seeded words x[j], x[j+1] and x[j+m], so only x[0..m+k) are seeded.
  static void first_words(result_type seed, std::size_t k, result_type* out) {
    assert(k <= kN - kM);
    std::uint64_t x[kN];
    seed_words(seed, x, kM + k);
    for (std::size_t j = 0; j < k; ++j) {
      out[j] = temper(twist(x[j], x[j + 1], x[j + kM]));
    }
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;  // r = 31

  /// The first `count` words of the seeded state.
  static void seed_words(result_type seed, std::uint64_t* x,
                         std::size_t count) {
    x[0] = seed;
    for (std::size_t i = 1; i < count; ++i) {
      x[i] = 6364136223846793005ULL * (x[i - 1] ^ (x[i - 1] >> 62)) + i;
    }
  }

  static result_type temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// One twisted word from x[k] (upper bits), x[k+1] (lower bits) and
  /// x[k+m].
  static std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                             std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  void refill() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::uint64_t x_[kN];
  std::size_t p_ = kN;
};

/// Deterministic random-number stream.
///
/// Every stochastic component of the simulator draws from its own `Rng`
/// derived from a root seed and a stream id (`substream`).  This keeps
/// experiments reproducible run-to-run and — more importantly — makes the
/// randomness consumed by one component independent of how often another
/// component draws, so adding a flow to a scenario does not perturb the
/// loss pattern seen by existing flows.
///
/// An `Rng` keeps only its seed until its first draw.  That draw fills a
/// 256-byte prefix, the stream's first kPrefixWords words computed straight
/// from the seed (Mt19937_64::first_words), and draws up to kPrefixWords
/// are served from it.  Only a stream that draws past the prefix, or whose
/// engine() is taken, builds the 2.5 KB MT19937-64 state, which skips the
/// words already served.  Most streams in a run draw a handful of words (a
/// receiver draws one feedback timer per round), so most never build it.
/// Prefix and engine live out of line: in the Rng's arena when it has one
/// (every stream from Simulator::make_rng, and their substreams), on the
/// heap otherwise.  Copies are deep.  An arena-backed Rng must not draw or
/// be copied after its arena is gone.
class Rng {
 public:
  /// Words served from the prefix before the engine is built.
  static constexpr std::size_t kPrefixWords = 32;

  explicit Rng(std::uint64_t seed) : seed_{seed} {}
  /// Keeps its prefix and engine in `arena` (nullptr: on the heap).
  Rng(std::uint64_t seed, Arena* arena) : seed_{seed}, arena_{arena} {}

  Rng(const Rng& o) : seed_{o.seed_}, arena_{o.arena_}, pos_{o.pos_} {
    if (pos_ == kEngine) {
      state_ = new_engine(*o.gen());
    } else if (pos_ != kFresh) {
      state_ = new_prefix();
      std::memcpy(words(), o.words(), kPrefixWords * sizeof(std::uint64_t));
    }
  }
  Rng(Rng&& o) noexcept
      : state_{std::exchange(o.state_, nullptr)},
        seed_{o.seed_},
        arena_{o.arena_},
        pos_{std::exchange(o.pos_, kFresh)} {}
  Rng& operator=(Rng o) noexcept {
    // `o` leaves with this stream's old state and the arena it came from.
    std::swap(state_, o.state_);
    std::swap(arena_, o.arena_);
    std::swap(pos_, o.pos_);
    seed_ = o.seed_;
    return *this;
  }
  ~Rng() { release(); }

  /// Derive an independent child stream.  Deterministic in (seed, id), and
  /// independent of how far this stream has drawn.  The child keeps its
  /// state where this one does.
  Rng substream(std::uint64_t stream_id) const {
    return Rng{mix(seed_ + 0x9e3779b97f4a7c15ULL * (stream_id + 1)), arena_};
  }

  /// The engine behind the stream, built on first use.  Hot loops take it
  /// once and draw from it directly; its draws advance this stream.
  Mt19937_64& engine() { return pos_ == kEngine ? *gen() : build(); }

  /// The engine as engine() would return it now, by value: its draws
  /// continue this stream where it stands, and this Rng does not move.  For
  /// an owner that draws only through the engine and keeps it inline.
  Mt19937_64 engine_copy() const {
    if (pos_ == kEngine) return *gen();
    Mt19937_64 e{mix(seed_)};
    for (std::uint32_t i = pos_ == kFresh ? 0 : pos_; i > 0; --i) e();
    return e;
  }

  std::uint64_t next_u64() {
    if (pos_ == kEngine) return (*gen())();
    if (pos_ < kPrefixWords) return words()[pos_++];
    return next_slow();
  }

  /// x / 2^64 correctly rounded, clamped below 1: what libstdc++'s
  /// generate_canonical<double, 53> makes of one 64-bit word.  The
  /// compiler's uint64 -> double conversion branches on the sign bit, which
  /// mispredicts on half of all random draws; hi * 2^32 + lo is exact up to
  /// the single rounding of the sum, so it yields the same double without
  /// the branch.
  static double canonical(std::uint64_t x) {
    double c = static_cast<double>(static_cast<std::int64_t>(x >> 32)) * 0x1p32 +
               static_cast<double>(static_cast<std::int64_t>(x & 0xffffffffu));
    c *= 0x1p-64;
    if (c >= 1.0) c = 1.0 - 0x1p-53;  // the largest double below 1
    return c;
  }

  /// A word floor for the test `1 - canonical(w) > u`: every w below the
  /// result passes it, so a caller that skips on that test can skip those
  /// words without converting them.  1 - canonical(w) only falls as w grows,
  /// so one exact evaluation at floor - 1 proves the whole range below; the
  /// estimate (1 - u) * 2^64 less a 2^14-word margin for its rounding passes
  /// that check, and halving is the fallback if it ever does not.  At
  /// u >= 1 (or NaN) no word passes and the floor is 0; below 2^-53, the
  /// least value 1 - canonical takes, every word passes.
  static std::uint64_t uniform01_floor(double u) {
    if (!(u < 1.0)) return 0;
    if (u < 0x1p-53) return ~std::uint64_t{0};
    const double estimate = (1.0 - u) * 0x1p64 - 0x1p14;
    std::uint64_t floor =
        estimate > 0.0 ? static_cast<std::uint64_t>(estimate) : 0;
    while (floor > 0 && !(1.0 - canonical(floor - 1) > u)) floor /= 2;
    return floor;
  }

  /// Uniform in (0, 1] — never returns 0, safe as a log() argument.
  /// Spelled out as 1 - uniform_real_distribution<double>{0, 1}.
  double uniform01() { return 1.0 - canonical(next_u64()); }

  /// Uniform between lo and hi, spelled out as
  /// uniform_real_distribution<double>{lo, hi}: the same expression over the
  /// same canonical draw.
  double uniform(double lo, double hi) {
    return canonical(next_u64()) * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi], inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    Bits bits{*this};
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(bits);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    Bits bits{*this};
    return std::bernoulli_distribution{p}(bits);
  }

  /// Exponential with the given mean.
  double exponential(double mean) {
    Bits bits{*this};
    return std::exponential_distribution<double>{1.0 / mean}(bits);
  }

 private:
  /// next_u64() as a standard uniform random bit generator: the std::
  /// distributions draw through the prefix like every other call.
  struct Bits {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return rng.next_u64(); }
    Rng& rng;
  };

  // pos_ below kPrefixWords: the next draw is words()[pos_].  At
  // kPrefixWords the prefix is used up; kFresh holds nothing yet, and
  // kEngine the built engine.
  static constexpr std::uint32_t kFresh = kPrefixWords + 1;
  static constexpr std::uint32_t kEngine = kPrefixWords + 2;

  /// splitmix64 finalizer: decorrelates nearby seeds.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t* words() const { return static_cast<std::uint64_t*>(state_); }
  Mt19937_64* gen() const { return static_cast<Mt19937_64*>(state_); }

  /// Storage for a prefix, in the arena or on the heap.
  std::uint64_t* new_prefix() const {
    if (arena_ == nullptr) return new std::uint64_t[kPrefixWords];
    return static_cast<std::uint64_t*>(
        arena_->allocate(kPrefixWords * sizeof(std::uint64_t), 64));
  }

  /// An engine made from `arg` (a seed or an engine to copy), in the arena
  /// or on the heap.
  template <class Arg>
  Mt19937_64* new_engine(const Arg& arg) const {
    if (arena_ == nullptr) return new Mt19937_64(arg);
    return ::new (arena_->allocate(sizeof(Mt19937_64), 64)) Mt19937_64(arg);
  }

  /// Frees a heap prefix or engine; arena memory goes with the arena.
  void release() {
    if (arena_ != nullptr) return;
    if (pos_ == kEngine) {
      delete gen();
    } else {
      delete[] words();  // null while kFresh
    }
  }

  /// The first draw fills the prefix; the draw past it builds the engine.
  /// Kept out of the draw's inline path.
  [[gnu::noinline]] std::uint64_t next_slow() {
    if (pos_ == kPrefixWords) return build()();
    state_ = new_prefix();
    Mt19937_64::first_words(mix(seed_), kPrefixWords, words());
    pos_ = 1;
    return words()[0];
  }

  /// Builds the engine, past the words the prefix has served.
  [[gnu::noinline]] Mt19937_64& build() {
    Mt19937_64* built = new_engine(mix(seed_));
    for (std::uint32_t i = pos_ == kFresh ? 0 : pos_; i > 0; --i) (*built)();
    release();
    state_ = built;
    pos_ = kEngine;
    return *built;
  }

  void* state_{nullptr};  // the prefix's words or the engine, per pos_
  std::uint64_t seed_;
  Arena* arena_{nullptr};
  std::uint32_t pos_{kFresh};
};

}  // namespace tfmcc
