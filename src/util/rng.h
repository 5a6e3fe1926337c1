// Deterministic, splittable pseudo-random number generation.
//
// All randomness in radiocast flows from a single seeded `rng` (xoshiro256**
// seeded via splitmix64). Simulations split one child generator per node so
// that results are reproducible bit-for-bit regardless of iteration order,
// and so that adding instrumentation does not perturb protocol coin flips.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "util/assert.h"

namespace radiocast {

/// xoshiro256** generator with splitmix64 seeding.
///
/// Satisfies std::uniform_random_bit_generator, so it can also drive
/// <random> distributions where convenient.
class rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from a 64-bit seed via splitmix64.
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value. Defined here, with uniform01 and bernoulli,
  /// so that the per-node draws of the protocols and fault models inline.
  std::uint64_t operator()() noexcept { return next(); }
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child generator. Deterministic: the same parent
  /// state yields the same sequence of children.
  rng split() noexcept;

  /// Uniform integer in [0, bound) for bound ≥ 1 (unbiased, via rejection).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] (inclusive), lo ≤ hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1): 53 random mantissa bits.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Coin flip: true with probability 1/2.
  bool flip() noexcept { return (next() >> 63) != 0; }

  /// State equality — two generators compare equal iff they will produce
  /// identical streams. The simulator's sleeper sweep (run_options::
  /// verify_sleepers) uses this to prove a dormant node drew no randomness.
  friend bool operator==(const rng& a, const rng& b) noexcept = default;

 private:
  std::array<std::uint64_t, 4> state_;
};

/// splitmix64 step — exposed because tests and seed-mixing use it directly.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace radiocast
