#include "adversary/jamming.h"

#include <algorithm>

#include "util/assert.h"

namespace radiocast {

jamming::jamming(std::vector<node_id> pool, int k) : k_(k), pool_(pool) {
  RC_REQUIRE_MSG(k >= 4 && k % 2 == 0, "jamming needs even k ≥ 4");
  RC_REQUIRE_MSG(static_cast<int>(pool.size()) >= k * k / 2,
                 "pool too small: every block must start with ≥ k elements");
  const int block_count = k / 2;
  blocks_.resize(static_cast<std::size_t>(block_count));
  // Near-equal contiguous partition (the paper's B(p) are arbitrary).
  const std::size_t base = pool.size() / static_cast<std::size_t>(block_count);
  const std::size_t extra = pool.size() % static_cast<std::size_t>(block_count);
  std::size_t at = 0;
  for (std::size_t p = 0; p < blocks_.size(); ++p) {
    const std::size_t size = base + (p < extra ? 1 : 0);
    blocks_[p].assign(pool.begin() + static_cast<std::ptrdiff_t>(at),
                      pool.begin() + static_cast<std::ptrdiff_t>(at + size));
    at += size;
  }
}

jamming::outcome jamming::step(const std::vector<node_id>& y) {
  ++steps_;
  // Sorted fold of Y: membership via binary search, so the adversary's
  // decisions cannot depend on hash iteration order (analyzer rule R3).
  std::vector<node_id> in_y(y);
  std::sort(in_y.begin(), in_y.end());
  auto hit = [&](node_id v) {
    return std::binary_search(in_y.begin(), in_y.end(), v);
  };
  auto intersection_size = [&](const std::vector<node_id>& block) {
    int count = 0;
    for (node_id v : block) count += hit(v) ? 1 : 0;
    return count;
  };
  auto truncate_if_small = [&](std::vector<node_id>& block) {
    if (!is_large(block) && block.size() > 2) {
      block.resize(2);  // "choose two elements v, w"
    }
  };

  // Case A: some large block intersects Y in more than a 2/k fraction.
  for (auto& block : blocks_) {
    if (!is_large(block)) continue;
    const int hits = intersection_size(block);
    if (static_cast<std::int64_t>(hits) * k_ >
        2 * static_cast<std::int64_t>(block.size())) {
      std::vector<node_id> kept;
      kept.reserve(static_cast<std::size_t>(hits));
      for (node_id v : block) {
        if (hit(v)) kept.push_back(v);
      }
      RC_CHECK_MSG(kept.size() >= 2,
                   "jamming case A must keep ≥ 2 candidates after shrinking");
      block = std::move(kept);
      truncate_if_small(block);
      return outcome{outcome::kind::collision, -1};
    }
  }

  // Case B: every large block loses its transmitters…
  for (auto& block : blocks_) {
    if (!is_large(block)) continue;
    std::erase_if(block, [&](node_id v) { return hit(v); });
    // ≥ (1 − 2/k)·k = k − 2 ≥ 2 for k ≥ 4
    RC_CHECK_MSG(block.size() >= 2,
                 "jamming case B left a large block with < 2 candidates");
    truncate_if_small(block);
  }
  // …and the answer is read off the small blocks.
  node_id unique = -1;
  int seen = 0;
  for (const auto& block : blocks_) {
    if (is_large(block)) continue;
    for (node_id v : block) {
      if (hit(v)) {
        unique = v;
        if (++seen >= 2) return outcome{outcome::kind::collision, -1};
      }
    }
  }
  if (seen == 0) return outcome{outcome::kind::silence, -1};
  return outcome{outcome::kind::unique, unique};
}

std::size_t jamming::largest_block() const {
  std::size_t best = 0;
  for (std::size_t p = 1; p < blocks_.size(); ++p) {
    if (blocks_[p].size() > blocks_[best].size()) best = p;
  }
  return best;
}

jamming::layer_choice jamming::pick_layer() const {
  const std::size_t p_star = largest_block();
  layer_choice choice;
  for (std::size_t p = 0; p < blocks_.size(); ++p) {
    if (p == p_star) continue;
    RC_CHECK_MSG(blocks_[p].size() >= 2,
                 "jamming block invariant (≥ 2 candidates) broken in "
                 "pick_layer");
    choice.layer.push_back(blocks_[p][0]);
    choice.layer.push_back(blocks_[p][1]);
  }
  const auto& star_block = blocks_[p_star];
  const std::size_t star_size =
      std::min<std::size_t>(static_cast<std::size_t>(k_), star_block.size());
  RC_CHECK_MSG(star_size >= 2,
               "star block must contribute ≥ 2 candidates to the layer");
  choice.star.assign(star_block.begin(),
                     star_block.begin() + static_cast<std::ptrdiff_t>(star_size));
  choice.layer.insert(choice.layer.end(), choice.star.begin(),
                      choice.star.end());
  return choice;
}

bool jamming::invariant_holds() const {
  // Sorted folds instead of hash sets: membership via binary search, block
  // disjointness via one sort + adjacent_find (analyzer rule R3).
  std::vector<node_id> pool_sorted(pool_);
  std::sort(pool_sorted.begin(), pool_sorted.end());
  std::vector<node_id> seen;
  for (const auto& block : blocks_) {
    if (block.size() < 2) return false;
    for (node_id v : block) {
      if (!std::binary_search(pool_sorted.begin(), pool_sorted.end(), v)) {
        return false;
      }
      seen.push_back(v);
    }
  }
  std::sort(seen.begin(), seen.end());
  // Blocks must be pairwise disjoint: no value may appear twice.
  return std::adjacent_find(seen.begin(), seen.end()) == seen.end();
}

}  // namespace radiocast
