// Packed bit mask for the hot-path membership tests (crash masks, awake
// masks, down-edge masks — sim/engine_core.h, sim/soa_engine.h).
//
// std::vector<std::uint8_t> answers "is v crashed?" one byte at a time;
// std::vector<bool> packs bits but hides the words, so a sweep that wants
// to skip 64 dormant nodes at once cannot. This container exposes both
// views: branchy per-bit test/set/reset for the fault bookkeeping, and the
// raw words for word-at-a-time scans ("any crashed in this shard?",
// "which of these 64 nodes are neither awake nor crashed?") via word() +
// std::countr_zero.
//
// test/set/reset/word check their index and throw. The step engine's hot
// loops read through test_unchecked and words() instead: their indices come
// from a CSR row or the node range, and a per-visit bounds check is a
// compare plus a branch to a throw path on every edge.
//
// Bits past size() in the last word are guaranteed zero (assign, set and
// reset keep the invariant), so word-level consumers may OR whole words
// without masking the tail — only bit INDICES need bounds care.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.h"

namespace radiocast::util {

class bitset {
 public:
  static constexpr std::size_t kWordBits = 64;

  bitset() = default;

  /// Resizes to `n` bits, all set to `value` (tail bits of the last word
  /// stay zero regardless). Mirrors std::vector::assign — every run
  /// re-assigns its masks from scratch.
  void assign(std::size_t n, bool value) {
    size_ = n;
    const std::size_t words = (n + kWordBits - 1) / kWordBits;
    words_.assign(words, value ? ~std::uint64_t{0} : 0);
    if (value && n % kWordBits != 0) {
      words_.back() >>= kWordBits - (n % kWordBits);
    }
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool test(std::size_t i) const {
    RC_REQUIRE(i < size_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }

  /// test() without the bounds check, for indices the caller has already
  /// bounded (a CSR row entry, a node id below the mask's size).
  bool test_unchecked(std::size_t i) const noexcept {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }

  void set(std::size_t i) {
    RC_REQUIRE(i < size_);
    words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
  }

  void reset(std::size_t i) {
    RC_REQUIRE(i < size_);
    words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
  }

  /// True iff any bit is set. Word-at-a-time: O(size/64).
  bool any() const noexcept {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  bool none() const noexcept { return !any(); }

  /// Number of set bits (popcount over words).
  std::size_t count() const noexcept {
    std::size_t total = 0;
    for (const std::uint64_t w : words_) {
      total += static_cast<std::size_t>(std::popcount(w));
    }
    return total;
  }

  /// Word-level view for bulk scans. Bit i lives in word(i / kWordBits) at
  /// position i % kWordBits; tail bits past size() are zero.
  std::size_t word_count() const noexcept { return words_.size(); }
  std::uint64_t word(std::size_t w) const {
    RC_REQUIRE(w < words_.size());
    return words_[w];
  }
  /// All words at once, unchecked, for loops that walk every word.
  std::span<const std::uint64_t> words() const noexcept { return words_; }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace radiocast::util
