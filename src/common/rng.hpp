// rng.hpp — deterministic random number generation.
//
// Every stochastic element of the reproduction (bandwidth jitter, workload
// generation, property-test inputs) draws from a seeded SplitMix64/xoshiro
// generator so experiments are exactly repeatable. Never use global RNG
// state: pass an Rng by reference (CP.3 — no shared mutable statics).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace dosas {

/// xoshiro256** seeded via SplitMix64. Satisfies UniformRandomBitGenerator,
/// so it can also drive <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;
  using State = std::array<std::uint64_t, 4>;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    auto next = [&seed]() {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (auto& w : state_) w = next();
  }

  /// The xoshiro words, to resume the stream elsewhere. The all-zero state
  /// is a fixed point (every draw is 0); reseed() never produces it.
  State state() const { return state_; }
  void set_state(const State& s) { state_ = s; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli(p).
  bool chance(double p) { return uniform() < p; }

  /// Derive an independent child stream (for per-entity RNGs).
  Rng fork() { return Rng{(*this)()}; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  State state_{};
};

}  // namespace dosas
