#pragma once

#include <cstdint>
#include <random>

namespace tfmcc {

/// Deterministic random-number stream.
///
/// Every stochastic component of the simulator draws from its own `Rng`
/// derived from a root seed and a stream id (`substream`).  This keeps
/// experiments reproducible run-to-run and — more importantly — makes the
/// randomness consumed by one component independent of how often another
/// component draws, so adding a flow to a scenario does not perturb the
/// loss pattern seen by existing flows.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_{mix(seed)}, seed_{seed} {}

  /// Derive an independent child stream.  Deterministic in (seed, id).
  Rng substream(std::uint64_t stream_id) const {
    return Rng{mix(seed_ + 0x9e3779b97f4a7c15ULL * (stream_id + 1))};
  }

  std::uint64_t next_u64() { return gen_(); }

  /// Uniform in (0, 1] — never returns 0, safe as a log() argument.
  ///
  /// Spelled out as 1 - uniform_real_distribution<double>{0, 1}: the draw
  /// x / 2^64 correctly rounded, clamped below 1.  The compiler's
  /// uint64 -> double conversion branches on the sign bit, which mispredicts
  /// on half of all random draws; hi * 2^32 + lo is exact up to the single
  /// rounding of the sum, so it yields the same double without the branch.
  double uniform01() {
    const std::uint64_t x = gen_();
    double c = static_cast<double>(static_cast<std::int64_t>(x >> 32)) * 0x1p32 +
               static_cast<double>(static_cast<std::int64_t>(x & 0xffffffffu));
    c *= 0x1p-64;
    if (c >= 1.0) c = 1.0 - 0x1p-53;  // the largest double below 1
    return 1.0 - c;
  }

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(gen_);
  }

  /// Uniform integer in [lo, hi], inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(gen_);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution{p}(gen_);
  }

  /// Exponential with the given mean.
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(gen_);
  }

  /// Geometric number of trials until first success (>= 1), success prob p.
  std::int64_t geometric_trials(double p) {
    if (p >= 1.0) return 1;
    return 1 + std::geometric_distribution<std::int64_t>{p}(gen_);
  }

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(gen_);
  }

 private:
  /// splitmix64 finalizer: decorrelates nearby seeds.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::mt19937_64 gen_;
  std::uint64_t seed_;
};

}  // namespace tfmcc
