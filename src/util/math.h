// Small integer math helpers used across the library.
//
// The paper's procedures are phrased in terms of log₂ over powers of two
// (r, D are rounded up to powers of two by the algorithms). These helpers
// keep that arithmetic exact — no floating point on protocol-critical paths.
#pragma once

#include <bit>
#include <cstdint>

#include "util/assert.h"

namespace radiocast {

/// True iff x is a power of two (x > 0).
constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// ⌊log₂ x⌋ for x ≥ 1.
constexpr int ilog2_floor(std::uint64_t x) {
  RC_REQUIRE(x >= 1);
  return 63 - std::countl_zero(x);
}

/// ⌈log₂ x⌉ for x ≥ 1.
constexpr int ilog2_ceil(std::uint64_t x) {
  RC_REQUIRE(x >= 1);
  return x == 1 ? 0 : 64 - std::countl_zero(x - 1);
}

/// Smallest power of two ≥ x (x ≥ 1).
constexpr std::uint64_t next_pow2(std::uint64_t x) {
  RC_REQUIRE(x >= 1);
  return std::uint64_t{1} << ilog2_ceil(x);
}

/// ⌈a / b⌉ for b ≥ 1.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  RC_REQUIRE(b >= 1);
  return (a + b - 1) / b;
}

/// Smallest t ≥ from with t ≡ residue (mod modulus), for from ≥ 0 and
/// 0 ≤ residue < modulus: the next slot of a round-robin schedule.
constexpr std::int64_t next_residue(std::int64_t from, std::int64_t residue,
                                    std::int64_t modulus) {
  RC_REQUIRE(from >= 0 && modulus >= 1 && residue >= 0 && residue < modulus);
  return from + (residue - from % modulus + modulus) % modulus;
}

/// Integer exponentiation (no overflow checks; callers keep values small).
constexpr std::uint64_t ipow(std::uint64_t base, unsigned exp) noexcept {
  std::uint64_t result = 1;
  while (exp-- > 0) result *= base;
  return result;
}

}  // namespace radiocast
