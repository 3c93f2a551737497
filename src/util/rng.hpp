#pragma once

#include <cstddef>
#include <cstdint>
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

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    if (p_ >= kN) refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;  // r = 31

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
/// An `Rng` keeps only its seed until its first draw, which builds the
/// 2.5 KB MT19937-64 state out of line: in the Rng's arena when it has one
/// (every stream from Simulator::make_rng, and their substreams), on the
/// heap otherwise.  A host's link and receiver stay small, and a stream
/// that never draws (an idle uplink, a receiver that never reports) never
/// builds its state.  Copies are deep.  An arena-backed Rng must not draw
/// or be copied after its arena is gone.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_{seed} {}
  /// Builds its engine in `arena` (nullptr: on the heap).
  Rng(std::uint64_t seed, Arena* arena) : seed_{seed}, arena_{arena} {}

  Rng(const Rng& o) : seed_{o.seed_}, arena_{o.arena_} {
    if (o.gen_ != nullptr) gen_ = new_engine(*o.gen_);
  }
  Rng(Rng&& o) noexcept
      : gen_{std::exchange(o.gen_, nullptr)},
        seed_{o.seed_},
        arena_{o.arena_} {}
  Rng& operator=(Rng o) noexcept {
    // `o` leaves with this stream's old engine and the arena it came from.
    std::swap(gen_, o.gen_);
    std::swap(arena_, o.arena_);
    seed_ = o.seed_;
    return *this;
  }
  ~Rng() {
    if (arena_ == nullptr) delete gen_;
  }

  /// Derive an independent child stream.  Deterministic in (seed, id), and
  /// independent of how far this stream has drawn.  The child builds its
  /// engine where this one does.
  Rng substream(std::uint64_t stream_id) const {
    return Rng{mix(seed_ + 0x9e3779b97f4a7c15ULL * (stream_id + 1)), arena_};
  }

  /// The engine behind the stream, built on first use.  Hot loops take it
  /// once and draw from it directly; its draws advance this stream.
  Mt19937_64& engine() { return gen_ != nullptr ? *gen_ : build(); }

  std::uint64_t next_u64() { return engine()(); }

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
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine());
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution{p}(engine());
  }

  /// Exponential with the given mean.
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine());
  }

 private:
  /// splitmix64 finalizer: decorrelates nearby seeds.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// A fresh engine copied from `from`, in the arena or on the heap.
  Mt19937_64* new_engine(const Mt19937_64& from) const {
    if (arena_ == nullptr) return new Mt19937_64(from);
    return ::new (arena_->allocate(sizeof(Mt19937_64), 64)) Mt19937_64(from);
  }

  /// Seeds the engine on the first draw; kept out of the draw's inline path.
  [[gnu::noinline]] Mt19937_64& build() {
    gen_ = new_engine(Mt19937_64{mix(seed_)});
    return *gen_;
  }

  Mt19937_64* gen_{nullptr};
  std::uint64_t seed_;
  Arena* arena_{nullptr};
};

}  // namespace tfmcc
