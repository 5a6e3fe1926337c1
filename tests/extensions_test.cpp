// Tests for the extension modules: selective-family broadcasting, the
// known-neighborhood DFS baseline, and the random geometric generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/dfs_known.h"
#include "core/runner.h"
#include "core/select_and_send.h"
#include "core/selective_broadcast.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "sim/simulator.h"

namespace radiocast {
namespace {

run_options capped(std::int64_t cap, stop_condition stop =
                                         stop_condition::all_informed) {
  run_options o;
  o.max_steps = cap;
  o.stop = stop;
  return o;
}

// ---------- selective-family broadcast ----------

TEST(SelectiveBroadcastTest, FamilyIsActuallySelective) {
  // For label spaces small enough, verify the constructed family
  // exhaustively at the k the protocol promises.
  for (const auto& [r, k] : std::vector<std::pair<node_id, int>>{
           {15, 2}, {15, 3}, {23, 3}, {31, 4}}) {
    const selective_broadcast_protocol proto(r, k);
    EXPECT_TRUE(is_selective(proto.family(), r + 1, k))
        << "r=" << r << " k=" << k;
  }
}

TEST(SelectiveBroadcastTest, CompletesOnBoundedDegreeGraphs) {
  rng gen(4);
  for (const node_id cap_deg : {3, 5}) {
    graph g = make_bounded_degree_tree(120, cap_deg, gen);
    const selective_broadcast_protocol proto(g.node_count() - 1,
                                             cap_deg + 1);
    const run_result res = run_broadcast(g, proto, capped(10'000'000));
    EXPECT_TRUE(res.completed) << "degree cap " << cap_deg;
  }
}

TEST(SelectiveBroadcastTest, CompletesOnPathsAndCycles) {
  const selective_broadcast_protocol proto(99, 3);  // max degree 2
  for (graph g : {make_path(100), make_cycle(100)}) {
    const run_result res = run_broadcast(g, proto, capped(10'000'000));
    EXPECT_TRUE(res.completed);
  }
}

TEST(SelectiveBroadcastTest, TimeBoundedByDTimesFamilyPasses) {
  rng gen(6);
  graph g = make_bounded_degree_tree(100, 3, gen);
  const selective_broadcast_protocol proto(99, 4);
  const int d = radius_from(g);
  const run_result res = run_broadcast(g, proto, capped(10'000'000));
  ASSERT_TRUE(res.completed);
  // One pass per layer suffices once the frontier stabilizes; allow the
  // +1 pass slack for mid-pass changes.
  EXPECT_LE(res.informed_step, (d + 1) * 2 * proto.family_size());
}

TEST(SelectiveBroadcastTest, ViaRunnerRegistry) {
  graph g = make_path(40);
  const auto proto = make_protocol("selective", 39, 3);
  const run_result res = run_broadcast(g, *proto, capped(1'000'000));
  EXPECT_TRUE(res.completed);
  EXPECT_NE(proto->name().find("selective-family"), std::string::npos);
}

TEST(SelectiveBroadcastTest, RejectsBadParameters) {
  EXPECT_THROW(selective_broadcast_protocol(0, 2), precondition_error);
  EXPECT_THROW(selective_broadcast_protocol(15, 0), precondition_error);
  EXPECT_THROW(make_protocol("selective", 15), precondition_error);
}

// ---------- known-neighborhood DFS ----------

TEST(DfsKnownTest, CompletesOnVariedTopologies) {
  rng gen(12);
  const std::vector<graph> graphs = {
      make_path(30),  make_star(30),          make_complete(16),
      make_grid(5, 6), make_random_tree(50, gen),
      make_gnp_connected(50, 0.1, gen),
      make_complete_layered_uniform(60, 6)};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const dfs_known_protocol proto(graphs[i]);
    const run_result res = run_broadcast(
        graphs[i], proto, capped(1'000'000, stop_condition::all_halted));
    EXPECT_TRUE(res.completed) << "graph " << i;
  }
}

TEST(DfsKnownTest, LinearTimeWithSmallConstant) {
  // Two steps per first visit + one per backtrack ⇒ ≤ 3n + O(1).
  for (const node_id n : {32, 128, 512}) {
    // radiocast-analyze: allow(taint) -- the size n is the fixed seed: each
    // size gets its own graph, identical on every run
    rng gen(static_cast<std::uint64_t>(n));
    graph g = make_random_tree(n, gen);
    const dfs_known_protocol proto(g);
    const run_result res =
        run_broadcast(g, proto, capped(1'000'000, stop_condition::all_halted));
    ASSERT_TRUE(res.completed);
    EXPECT_LE(res.steps, 4 * static_cast<std::int64_t>(n)) << "n=" << n;
  }
}

TEST(DfsKnownTest, CollisionFree) {
  rng gen(3);
  graph g = make_gnp_connected(64, 0.1, gen);
  const dfs_known_protocol proto(g);
  const run_result res =
      run_broadcast(g, proto, capped(1'000'000, stop_condition::all_halted));
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.collisions, 0);  // one transmitter per step, always
}

TEST(DfsKnownTest, BeatsSelectAndSendEverywhere) {
  // The whole point of the baseline: neighborhood knowledge removes the
  // Θ(log n) selection cost per visit.
  rng gen(9);
  for (const node_id n : {64, 256}) {
    graph g = make_random_tree(n, gen);
    const dfs_known_protocol dfs(g);
    const select_and_send_protocol sas;
    const auto t_dfs = run_broadcast(
        g, dfs, capped(10'000'000, stop_condition::all_halted)).steps;
    const auto t_sas = run_broadcast(
        g, sas, capped(10'000'000, stop_condition::all_halted)).steps;
    EXPECT_LT(t_dfs, t_sas) << "n=" << n;
  }
}

TEST(DfsKnownTest, EveryLabellingWalksTheSameDfs) {
  // A node knows its neighbors' labels, not their node ids, so the walk
  // must not depend on how labels are assigned: the path is informed at
  // step 9 and the tree halts at 3n − 1 under dense, permuted and sparse
  // labellings alike. virtual_view drives the same labelling through the
  // protocol's bank, on both engines, and must reproduce the protocol's
  // own run.
  const auto run_labelled = [](const graph& g, std::vector<node_id> labels,
                               node_id r, stop_condition stop) {
    const dfs_known_protocol proto(g);
    run_options opts = capped(100'000, stop);
    opts.labels = std::move(labels);
    const run_result own = run_broadcast_with_r(g, proto, r, opts);
    const virtual_view view(proto);
    for (const step_engine engine :
         {step_engine::reference, step_engine::soa}) {
      opts.engine = engine;
      const run_result viewed = run_broadcast_with_r(g, view, r, opts);
      const std::string what =
          std::string("view on ") +
          (engine == step_engine::soa ? "soa" : "reference") +
          ", r=" + std::to_string(r);
      EXPECT_EQ(viewed.outcome, own.outcome) << what;
      EXPECT_EQ(viewed.steps, own.steps) << what;
      EXPECT_EQ(viewed.informed_at, own.informed_at) << what;
      EXPECT_EQ(viewed.transmissions_per_node, own.transmissions_per_node)
          << what;
    }
    return own;
  };
  const graph path = make_path(6);
  const std::vector<std::pair<std::vector<node_id>, node_id>> path_labels = {
      {{}, 5},
      {{0, 5, 1, 4, 2, 3}, 5},
      {{0, 7, 9, 2, 11, 4}, 11},
      {{0, 15, 3, 12, 6, 9}, 15}};
  for (const auto& [labels, r] : path_labels) {
    const run_result res =
        run_labelled(path, labels, r, stop_condition::all_informed);
    ASSERT_TRUE(res.completed) << "r=" << r;
    EXPECT_EQ(res.informed_step, 9) << "r=" << r;
  }

  rng gen(60);
  const graph tree = make_random_tree(60, gen);
  const node_id n = tree.node_count();
  std::vector<node_id> perm(static_cast<std::size_t>(n));
  for (node_id v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  std::shuffle(perm.begin() + 1, perm.end(), gen);  // the source keeps 0
  std::vector<node_id> sparse = perm;
  for (node_id& label : sparse) label *= 3;
  for (const auto& [labels, r] :
       std::vector<std::pair<std::vector<node_id>, node_id>>{
           {{}, n - 1}, {perm, n - 1}, {sparse, 3 * (n - 1)}}) {
    const run_result res =
        run_labelled(tree, labels, r, stop_condition::all_halted);
    ASSERT_TRUE(res.completed) << "r=" << r;
    EXPECT_EQ(res.steps, 3 * n - 1) << "r=" << r;
  }
}

TEST(DfsKnownTest, RejectsDirectedGraphs) {
  graph d = make_path(4).as_directed();
  EXPECT_THROW(dfs_known_protocol{d}, precondition_error);
}

// ---------- random geometric graphs ----------

class GeometricParam
    : public ::testing::TestWithParam<std::pair<node_id, double>> {};

TEST_P(GeometricParam, ConnectedWithAllNodes) {
  const auto [n, range] = GetParam();
  rng gen(static_cast<std::uint64_t>(n * 1000));
  graph g = make_random_geometric(n, range, gen);
  EXPECT_EQ(g.node_count(), n);
  EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeometricParam,
    ::testing::Values(std::pair<node_id, double>{20, 0.4},
                      std::pair<node_id, double>{100, 0.15},
                      std::pair<node_id, double>{100, 0.02},  // sparse: bridged
                      std::pair<node_id, double>{300, 0.1}));

TEST(GeometricTest, DenserRangeGivesMoreEdges) {
  rng gen1(5);
  rng gen2(5);
  graph sparse = make_random_geometric(150, 0.08, gen1);
  graph dense = make_random_geometric(150, 0.25, gen2);
  EXPECT_GT(dense.edge_count(), sparse.edge_count());
}

TEST(GeometricTest, RadiusShrinksWithRange) {
  rng gen1(8);
  rng gen2(8);
  graph wide = make_random_geometric(200, 0.5, gen1);
  graph narrow = make_random_geometric(200, 0.12, gen2);
  EXPECT_LE(radius_from(wide), radius_from(narrow));
}

TEST(GeometricTest, AllProtocolsBroadcastOnGeometricNetworks) {
  rng gen(21);
  graph g = make_random_geometric(120, 0.15, gen);
  const int d = radius_from(g);
  for (const std::string name :
       {"kp", "decay", "round-robin", "select-and-send", "interleaved"}) {
    const auto proto = make_protocol(name, g.node_count() - 1,
                                     std::max(1, d));
    run_options opts;
    opts.max_steps = 10'000'000;
    opts.seed = 2;
    const run_result res = run_broadcast(g, *proto, opts);
    EXPECT_TRUE(res.completed) << name;
  }
  const dfs_known_protocol dfs(g);
  run_options opts;
  opts.max_steps = 10'000'000;
  EXPECT_TRUE(run_broadcast(g, dfs, opts).completed);
}

TEST(GeometricTest, RejectsBadParameters) {
  rng gen(1);
  EXPECT_THROW(make_random_geometric(1, 0.5, gen), precondition_error);
  EXPECT_THROW(make_random_geometric(10, 0.0, gen), precondition_error);
}

}  // namespace
}  // namespace radiocast
