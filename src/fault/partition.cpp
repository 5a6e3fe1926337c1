#include "fault/partition.h"

#include <algorithm>
#include <queue>

#include "util/assert.h"

namespace radiocast::fault {

namespace {
constexpr std::uint64_t kPartitionSalt = 0x9a57'170e'00d5'000bULL;

constexpr std::uint8_t kChurnBit = 1;
constexpr std::uint8_t kWindowBit = 2;
}  // namespace

partition_model::partition_model(partition_options opts) : opts_(opts) {
  RC_REQUIRE_MSG(
      opts_.toggle_probability >= 0.0 && opts_.toggle_probability <= 1.0,
      "toggle_probability must lie in [0, 1]");
  RC_REQUIRE_MSG(opts_.period >= 0 && opts_.duration >= 0,
                 "period/duration must be non-negative");
  if (opts_.period > 0) {
    RC_REQUIRE_MSG(opts_.duration > 0 && opts_.duration < opts_.period,
                   "windows need 0 < duration < period");
    RC_REQUIRE_MSG(
        opts_.island_fraction > 0.0 && opts_.island_fraction < 1.0,
        "island_fraction must lie in (0, 1)");
  }
}

void partition_model::begin_run(const run_view& view) {
  const graph& g = *view.g;
  RC_REQUIRE_MSG(!g.is_directed(),
                 "partition_model requires an undirected graph");
  n_ = g.node_count();
  edges_.clear();
  for (node_id u = 0; u < n_; ++u) {
    for (const node_id v : g.out_neighbors(u)) {
      if (u < v) edges_.emplace_back(u, v);
    }
  }
  std::sort(edges_.begin(), edges_.end());  // schedule order fixed by (u,v)
  gen_ = rng(mix_seed(view.seed, kPartitionSalt));
  state_.assign(edges_.size(), 0);
  window_cut_.clear();
  island_.assign(static_cast<std::size_t>(n_), 0);
  window_end_ = -1;
  down_count_ = 0;
  windows_opened_ = 0;
}

void partition_model::set_window_bit(std::size_t edge, bool on,
                                     step_faults* out) {
  auto& s = state_[edge];
  const bool was_down = s != 0;
  if (on) {
    s |= kWindowBit;
  } else {
    s &= static_cast<std::uint8_t>(~kWindowBit);
  }
  const bool is_down = s != 0;
  if (was_down == is_down) return;  // masked by the churn bit: silent
  if (is_down) {
    ++down_count_;
    out->edges_down.push_back(edges_[edge]);
  } else {
    --down_count_;
    out->edges_up.push_back(edges_[edge]);
  }
}

void partition_model::begin_step(const step_view& view, step_faults* out) {
  // 1. Close an expired window before anything else, so a back-to-back
  //    window sees a clean slate.
  if (window_end_ >= 0 && view.step >= window_end_) {
    for (const std::size_t e : window_cut_) set_window_bit(e, false, out);
    window_cut_.clear();
    window_end_ = -1;
  }

  // 2. Per-edge churn, every edge eligible — bridges included.
  if (opts_.toggle_probability > 0.0) {
    rng gen = gen_;  // a local copy stays in registers across the loop
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      if (!gen.bernoulli(opts_.toggle_probability)) continue;
      auto& s = state_[i];
      const bool was_down = s != 0;
      s ^= kChurnBit;
      const bool is_down = s != 0;
      if (was_down == is_down) continue;  // masked by an active window
      if (is_down) {
        ++down_count_;
        out->edges_down.push_back(edges_[i]);
      } else {
        --down_count_;
        out->edges_up.push_back(edges_[i]);
      }
    }
    gen_ = gen;
  }

  // 3. Open a new window: grow a BFS ball of ⌈fraction·n⌉ nodes from a
  //    random center and cut every crossing edge.
  if (opts_.period > 0 && view.step > 0 && view.step % opts_.period == 0) {
    const auto target = static_cast<node_id>(std::min<double>(
        static_cast<double>(n_ - 1),
        std::max(1.0, opts_.island_fraction * static_cast<double>(n_))));
    const auto center = static_cast<node_id>(
        gen_.below(static_cast<std::uint64_t>(n_)));
    std::fill(island_.begin(), island_.end(), 0);
    std::queue<node_id> frontier;
    island_[static_cast<std::size_t>(center)] = 1;
    frontier.push(center);
    node_id taken = 1;
    while (!frontier.empty() && taken < target) {
      const node_id u = frontier.front();
      frontier.pop();
      for (const node_id v : view.g->out_neighbors(u)) {
        if (taken >= target) break;
        auto& in = island_[static_cast<std::size_t>(v)];
        if (in != 0) continue;
        in = 1;
        ++taken;
        frontier.push(v);
      }
    }
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      const auto [u, v] = edges_[i];
      if (island_[static_cast<std::size_t>(u)] ==
          island_[static_cast<std::size_t>(v)]) {
        continue;
      }
      window_cut_.push_back(i);
      set_window_bit(i, true, out);
    }
    window_end_ = view.step + opts_.duration;
    ++windows_opened_;
  }
}

frontier_cut_model::frontier_cut_model(frontier_cut_options opts)
    : opts_(opts) {
  RC_REQUIRE_MSG(opts_.budget_per_step >= 0,
                 "budget_per_step must be non-negative");
  RC_REQUIRE_MSG(opts_.total_budget >= -1,
                 "total_budget must be ≥ 0, or −1 for unlimited");
}

void frontier_cut_model::begin_run(const run_view& view) {
  n_ = view.g->node_count();
  down_.assign(static_cast<std::size_t>(n_), 0);
  spent_ = 0;
  crashed_count_ = 0;
}

void frontier_cut_model::begin_step(const step_view& view, step_faults* out) {
  if (opts_.budget_per_step <= 0) return;
  if (opts_.total_budget >= 0 && spent_ >= opts_.total_budget) return;
  // A node is "down" if anyone crashed it — this model or an earlier one
  // in a composite (view.crashed) — or we crashed it in a prior step.
  auto is_down = [&](node_id v) {
    return down_[static_cast<std::size_t>(v)] != 0 ||
           view.crashed->test(static_cast<std::size_t>(v));
  };
  auto is_informed = [&](node_id v) {
    return (*view.informed_at)[static_cast<std::size_t>(v)] >= 0;
  };
  int cut = 0;
  const node_id first = opts_.spare_source ? 1 : 0;
  for (node_id v = first; v < n_ && cut < opts_.budget_per_step; ++v) {
    if (opts_.total_budget >= 0 && spent_ >= opts_.total_budget) break;
    if (is_down(v) || !is_informed(v)) continue;
    // Frontier membership: some live neighbor still needs the message.
    bool on_frontier = false;
    for (const node_id u : view.g->out_neighbors(v)) {
      if (!is_down(u) && !is_informed(u)) {
        on_frontier = true;
        break;
      }
    }
    if (!on_frontier) continue;
    down_[static_cast<std::size_t>(v)] = 1;
    ++crashed_count_;
    ++spent_;
    ++cut;
    out->crashes.push_back(v);
  }
}

}  // namespace radiocast::fault
