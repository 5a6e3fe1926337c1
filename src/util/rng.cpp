#include "util/rng.h"

namespace radiocast {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

rng::rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro requires a nonzero state; splitmix64 output of any seed is
  // astronomically unlikely to be all-zero, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

rng rng::split() noexcept { return rng(next()); }

std::uint64_t rng::below(std::uint64_t bound) {
  RC_REQUIRE(bound >= 1);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint64_t value = next();
    if (value >= threshold) return value % bound;
  }
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  RC_REQUIRE(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  return lo + static_cast<std::int64_t>(below(span));
}

}  // namespace radiocast
