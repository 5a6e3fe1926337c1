// Structural validation of the token algorithms via trace analysis:
// Select-and-Send's token walk must be a genuine DFS of the network, and
// Complete-Layered's leadership chain must pick exactly one head per layer.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>
#include <set>
#include <stack>

#include "core/complete_layered.h"
#include "core/select_and_send.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace radiocast {
namespace {

// Message kinds replicated from the protocol implementations (they are
// internal constants; the trace exposes them as integers).
constexpr message_kind kSasStopToken = 3;
constexpr message_kind kSasToken = 6;
constexpr message_kind kClStopSelect = 3;
constexpr message_kind kClSelect = 6;

/// Extracts the token's walk (holder sequence) from a Select-and-Send
/// trace: the initial handoff (kStopToken) plus every kToken transmission.
std::vector<node_id> token_walk(const trace& t) {
  std::vector<node_id> walk;
  for (const auto& e : t.filter(trace_event::type::transmit)) {
    if (e.msg.kind == kSasStopToken || e.msg.kind == kSasToken) {
      if (walk.empty()) walk.push_back(e.node);  // the first holder
      walk.push_back(static_cast<node_id>(e.msg.a));
    }
  }
  return walk;
}

/// Checks that `walk` is a depth-first traversal of g starting at 0:
/// consecutive holders are adjacent, a new node is entered from the top of
/// the stack, and a handback pops exactly one stack level.
void expect_valid_dfs(const graph& g, const std::vector<node_id>& walk) {
  ASSERT_FALSE(walk.empty());
  ASSERT_EQ(walk.front(), 0);
  std::set<node_id> visited{0};
  std::stack<node_id> stack;
  stack.push(0);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    const node_id from = walk[i - 1];
    const node_id to = walk[i];
    ASSERT_TRUE(g.has_edge(from, to))
        << "token jumped a non-edge " << from << "→" << to;
    ASSERT_EQ(stack.top(), from) << "token moved from a non-holder";
    if (!visited.count(to)) {
      visited.insert(to);
      stack.push(to);  // descend
    } else {
      stack.pop();  // backtrack: `to` must be the new top (the parent)
      ASSERT_FALSE(stack.empty());
      ASSERT_EQ(stack.top(), to)
          << "backtrack did not return to the DFS parent";
    }
  }
  EXPECT_EQ(visited.size(), static_cast<std::size_t>(g.node_count()))
      << "DFS must visit every node";
  EXPECT_EQ(stack.size(), 1u) << "traversal must end back at the source";
  EXPECT_EQ(stack.top(), 0);
}

class SasDfsValidity : public ::testing::TestWithParam<int> {};

TEST_P(SasDfsValidity, TokenWalkIsADfs) {
  const int variant = GetParam();
  rng gen(static_cast<std::uint64_t>(variant) * 31 + 5);
  graph g = [&]() -> graph {
    switch (variant % 5) {
      case 0: return make_random_tree(40, gen);
      case 1: return make_gnp_connected(40, 0.12, gen);
      case 2: return make_grid(5, 8);
      case 3: return permute_labels(make_complete_layered_uniform(40, 5),
                                    gen);
      default: return make_random_geometric(40, 0.3, gen);
    }
  }();
  const select_and_send_protocol proto;
  trace t;
  run_options opts;
  opts.max_steps = 5'000'000;
  opts.stop = stop_condition::all_halted;
  opts.sink = &t;
  const run_result res = run_broadcast(g, proto, opts);
  ASSERT_TRUE(res.completed);
  expect_valid_dfs(g, token_walk(t));
}

INSTANTIATE_TEST_SUITE_P(Graphs, SasDfsValidity,
                         ::testing::Range(0, 10));

TEST(ClChainValidityTest, OneHeadPerLayerInOrder) {
  graph g = make_complete_layered_uniform(120, 10);
  const complete_layered_protocol proto;
  trace t;
  run_options opts;
  // The last selections happen after everyone is already informed (the
  // wake order that informs layer D precedes choosing its head), so run to
  // full termination rather than stopping at all-informed.
  opts.max_steps = 1'000'000;
  opts.stop = stop_condition::all_halted;
  opts.sink = &t;
  const run_result res = run_broadcast(g, proto, opts);
  ASSERT_TRUE(res.completed);
  std::int64_t informed = 0;
  for (std::int64_t at : res.informed_at) informed += at >= 0 ? 1 : 0;
  ASSERT_EQ(informed, g.node_count());

  const auto dist = bfs_distances(g, 0);
  std::vector<node_id> chain{0};
  for (const auto& e : t.filter(trace_event::type::transmit)) {
    if (e.msg.kind == kClStopSelect || e.msg.kind == kClSelect) {
      chain.push_back(static_cast<node_id>(e.msg.a));
    }
  }
  // The chain must step through layers 1, 2, …, D, one head per layer.
  ASSERT_EQ(chain.size(), 11u);
  for (std::size_t k = 0; k < chain.size(); ++k) {
    EXPECT_EQ(dist[static_cast<std::size_t>(chain[k])],
              static_cast<int>(k))
        << "head " << k << " is not in layer " << k;
  }
  // Consecutive heads are adjacent (the select order must be received).
  for (std::size_t k = 1; k < chain.size(); ++k) {
    EXPECT_TRUE(g.has_edge(chain[k - 1], chain[k]));
  }
}

TEST(ClChainValidityTest, StopsArriveBottomUp) {
  // Stop-layer orders target layers k−1 in increasing k, so lower layers
  // halt before upper ones (invariant: after phase k, layers ≤ k−2 have
  // stopped).
  graph g = make_complete_layered_uniform(60, 6);
  const complete_layered_protocol proto;
  trace t;
  run_options opts;
  opts.max_steps = 1'000'000;
  opts.sink = &t;
  ASSERT_TRUE(run_broadcast(g, proto, opts).completed);
  constexpr message_kind kClStopLayer = 7;
  std::int64_t prev_target = -1;
  for (const auto& e : t.filter(trace_event::type::transmit)) {
    if (e.msg.kind != kClStopLayer) continue;
    EXPECT_GT(e.msg.b, prev_target) << "stop orders must go bottom-up";
    prev_target = e.msg.b;
  }
  EXPECT_GE(prev_target, 0) << "at least one stop order must be issued";
}

TEST(ClChainValidityTest, EveryEngineHaltsEveryNode) {
  // kStopAll from the final head reaches only L_{D−1} (no intra-layer
  // edges); the node that chose that head relays a stop to L_D. Without
  // the relay the rest of L_D never halts and all_halted runs burn
  // max_steps. Every engine must terminate, at the same step, with every
  // node halted right after the last layer is stopped.
  const complete_layered_protocol proto;
  const std::vector<std::pair<std::string, graph>> graphs = [] {
    std::vector<std::pair<std::string, graph>> out;
    out.emplace_back("uniform64/4", make_complete_layered_uniform(64, 4));
    out.emplace_back("uniform256/16", make_complete_layered_uniform(256, 16));
    out.emplace_back("uniform2/1", make_complete_layered_uniform(2, 1));
    out.emplace_back("uniform9/1", make_complete_layered_uniform(9, 1));
    out.emplace_back("fat96/6@1", make_complete_layered_fat(96, 6, 1));
    out.emplace_back("fat96/6@6", make_complete_layered_fat(96, 6, 6, 3));
    return out;
  }();
  for (const auto& [tag, g] : graphs) {
    std::int64_t steps = -1;
    for (const auto engine : {step_engine::reference, step_engine::soa}) {
      run_options opts;
      opts.max_steps = 1'000'000;
      opts.stop = stop_condition::all_halted;
      opts.engine = engine;
      opts.verify_sleepers = engine != step_engine::reference;
      const run_result res = run_broadcast(g, proto, opts);
      EXPECT_TRUE(res.completed)
          << tag << " engine " << static_cast<int>(engine);
      EXPECT_EQ(res.outcome, run_outcome::completed) << tag;
      EXPECT_LT(res.steps, 100'000) << tag;
      if (steps == -1) steps = res.steps;
      EXPECT_EQ(res.steps, steps) << tag << ": engines disagree";
    }
  }
}

TEST(ClChainValidityTest, RelayLeavesAllInformedRunsUnchanged) {
  // The relay fires after kStopAll, long after the last node is informed,
  // so all_informed runs end before it: the stop-layer orders are the
  // heads' own (b = k − 1 for head k), never the relay's b = D.
  const graph g = make_complete_layered_uniform(64, 4);
  const complete_layered_protocol proto;
  trace t;
  run_options opts;
  opts.sink = &t;
  const run_result res = run_broadcast(g, proto, opts);
  ASSERT_TRUE(res.completed);
  constexpr message_kind kClStopLayer = 7;
  for (const auto& e : t.filter(trace_event::type::transmit)) {
    if (e.msg.kind == kClStopLayer) {
      EXPECT_LT(e.msg.b, 4);
    }
  }
}

}  // namespace
}  // namespace radiocast
