#include "fault/churn.h"

#include <algorithm>
#include <queue>

#include "util/assert.h"

namespace radiocast::fault {

namespace {
constexpr std::uint64_t kChurnSalt = 0xc4e2'4000'edfe'0004ULL;
}  // namespace

churn_model::churn_model(churn_options opts) : opts_(opts) {
  RC_REQUIRE_MSG(
      opts_.toggle_probability >= 0.0 && opts_.toggle_probability <= 1.0,
      "toggle_probability must lie in [0, 1]");
}

void churn_model::begin_run(const run_view& view) {
  const graph& g = *view.g;
  RC_REQUIRE_MSG(!g.is_directed(),
                 "churn_model requires an undirected graph");
  const node_id n = g.node_count();

  // BFS spanning tree from the source; its edges are churn-exempt so the
  // graph stays connected every step.
  std::vector<node_id> parent(static_cast<std::size_t>(n), -1);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  std::queue<node_id> frontier;
  seen[0] = 1;
  frontier.push(0);
  while (!frontier.empty()) {
    const node_id u = frontier.front();
    frontier.pop();
    for (const node_id v : g.out_neighbors(u)) {
      if (seen[static_cast<std::size_t>(v)] != 0) continue;
      seen[static_cast<std::size_t>(v)] = 1;
      parent[static_cast<std::size_t>(v)] = u;
      frontier.push(v);
    }
  }
  for (node_id v = 0; v < n; ++v) {
    RC_REQUIRE_MSG(seen[static_cast<std::size_t>(v)] != 0,
                   "churn_model requires a connected graph");
  }

  auto is_tree_edge = [&](node_id u, node_id v) {
    return parent[static_cast<std::size_t>(u)] == v ||
           parent[static_cast<std::size_t>(v)] == u;
  };

  edges_.clear();
  for (node_id u = 0; u < n; ++u) {
    for (const node_id v : g.out_neighbors(u)) {
      if (u >= v) continue;  // each undirected edge once, normalized u < v
      if (is_tree_edge(u, v)) continue;
      edges_.emplace_back(u, v);
    }
  }
  std::sort(edges_.begin(), edges_.end());  // schedule order fixed by (u,v)

  gen_ = rng(mix_seed(view.seed, kChurnSalt));
  down_.assign(edges_.size(), 0);
  down_count_ = 0;
  toggle_count_ = 0;
}

void churn_model::begin_step(const step_view& view, step_faults* out) {
  (void)view;
  if (opts_.toggle_probability <= 0.0) return;
  rng gen = gen_;  // a local copy stays in registers across the loop
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (!gen.bernoulli(opts_.toggle_probability)) continue;
    auto& state = down_[i];
    state ^= 1;
    ++toggle_count_;
    if (state != 0) {
      ++down_count_;
      out->edges_down.push_back(edges_[i]);
    } else {
      --down_count_;
      out->edges_up.push_back(edges_[i]);
    }
  }
  gen_ = gen;
}

}  // namespace radiocast::fault
