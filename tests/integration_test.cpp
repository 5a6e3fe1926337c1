// Cross-module integration tests: every protocol × every topology family ×
// seeds completes; determinism; label-permutation robustness; the runner
// registry; and end-to-end shape checks combining fitting with simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/runner.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "util/fit.h"

namespace radiocast {
namespace {

struct topo {
  std::string name;
  graph g;
};

std::vector<topo> topologies(node_id scale) {
  rng gen(2025);
  std::vector<topo> out;
  out.push_back({"path", make_path(scale)});
  out.push_back({"star", make_star(scale)});
  out.push_back({"cycle", make_cycle(scale)});
  out.push_back({"grid", make_grid(scale / 8, 8)});
  out.push_back({"tree", make_random_tree(scale, gen)});
  out.push_back({"gnp", make_gnp_connected(scale, 6.0 / scale, gen)});
  out.push_back({"layered", make_complete_layered_uniform(scale, 8)});
  out.push_back({"layered-deep",
                 make_complete_layered_uniform(scale, scale / 4)});
  out.push_back({"caterpillar", make_caterpillar(scale / 4, 3)});
  out.push_back(
      {"permuted-grid", permute_labels(make_grid(8, scale / 8), gen)});
  return out;
}

class EveryProtocolEveryTopology
    : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryProtocolEveryTopology, CompletesAndInformsAll) {
  const std::string proto_name = GetParam();
  for (const topo& t : topologies(64)) {
    const int d = radius_from(t.g);
    // complete-layered only runs on its own family.
    if (proto_name == "complete-layered" && !is_complete_layered(t.g)) {
      continue;
    }
    const auto proto =
        make_protocol(proto_name, t.g.node_count() - 1, std::max(1, d));
    run_options opts;
    opts.max_steps = 4'000'000;
    opts.seed = 11;
    const run_result res = run_broadcast(t.g, *proto, opts);
    ASSERT_TRUE(res.completed) << proto_name << " on " << t.name;
    for (std::size_t v = 0; v < res.informed_at.size(); ++v) {
      EXPECT_GE(res.informed_at[v], 0)
          << proto_name << " on " << t.name << " node " << v;
    }
    // No node is informed before its BFS distance allows (speed of light).
    const auto dist = bfs_distances(t.g, 0);
    for (std::size_t v = 1; v < res.informed_at.size(); ++v) {
      EXPECT_GE(res.informed_at[v] + 1, dist[v])
          << proto_name << " on " << t.name << " node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, EveryProtocolEveryTopology,
                         ::testing::Values("decay", "kp", "kp-doubling",
                                           "round-robin", "select-and-send",
                                           "complete-layered", "interleaved"),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RunnerTest, AllNamesConstruct) {
  for (const std::string& name : protocol_names()) {
    const auto proto = make_protocol(name, 127, 4);
    ASSERT_NE(proto, nullptr) << name;
    EXPECT_FALSE(proto->name().empty());
  }
}

TEST(RunnerTest, UnknownNameRejected) {
  EXPECT_THROW(make_protocol("no-such-algorithm", 63), precondition_error);
  EXPECT_THROW(make_protocol("kp", 63), precondition_error);  // needs D
}

TEST(RunnerTest, MeasureCollapsesDeterministicTrials) {
  graph g = make_path(16);
  const auto rr = make_protocol("round-robin", 15);
  const measurement m = measure(g, *rr, 5);
  EXPECT_EQ(m.time.count, 1u);  // deterministic → one run is enough
  const measurement full = measure(g, *rr, 3, 1, 1'000'000, false);
  EXPECT_EQ(full.time.count, 3u);
  EXPECT_DOUBLE_EQ(full.time.stddev, 0.0);  // …and identical anyway
}

TEST(RunnerTest, MeasureReportsRandomVariation) {
  graph g = make_complete_layered_uniform(128, 8);
  const auto decay = make_protocol("decay", 127);
  const measurement m = measure(g, *decay, 8, 42);
  EXPECT_EQ(m.time.count, 8u);
  EXPECT_GT(m.time.mean, 0.0);
  EXPECT_GE(m.time.max, m.time.min);
}

TEST(IntegrationTest, SameSeedSameTrace) {
  graph g = make_complete_layered_uniform(96, 6);
  for (const std::string name : {"decay", "kp", "interleaved"}) {
    const auto proto = make_protocol(name, 95, 6);
    run_options opts;
    opts.max_steps = 1'000'000;
    opts.seed = 1234;
    const run_result a = run_broadcast(g, *proto, opts);
    const run_result b = run_broadcast(g, *proto, opts);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.informed_step, b.informed_step) << name;
    EXPECT_EQ(a.informed_at, b.informed_at) << name;
    EXPECT_EQ(a.transmissions, b.transmissions) << name;
  }
}

TEST(IntegrationTest, DifferentSeedsUsuallyDiffer) {
  graph g = make_complete_layered_uniform(128, 16);
  const auto proto = make_protocol("decay", 127);
  int distinct = 0;
  std::int64_t prev = -1;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_options opts;
    opts.seed = seed;
    const run_result r = run_broadcast(g, *proto, opts);
    ASSERT_TRUE(r.completed);
    distinct += (r.informed_step != prev);
    prev = r.informed_step;
  }
  EXPECT_GE(distinct, 3);
}

TEST(IntegrationTest, LabelPermutationKeepsProtocolsCorrect) {
  rng gen(7);
  graph base = make_complete_layered_uniform(72, 6);
  for (int trial = 0; trial < 3; ++trial) {
    graph g = permute_labels(base, gen);
    for (const std::string name :
         {"decay", "kp", "round-robin", "select-and-send",
          "complete-layered", "interleaved"}) {
      const auto proto = make_protocol(name, 71, 6);
      run_options opts;
      opts.max_steps = 4'000'000;
      opts.seed = 5;
      const run_result r = run_broadcast(g, *proto, opts);
      EXPECT_TRUE(r.completed) << name << " trial " << trial;
    }
  }
}

TEST(IntegrationTest, SelectAndSendShapeFitsNLogN) {
  // End-to-end E4-style check: full-traversal times across sizes fit
  // c·n·log n with high R².
  const auto proto = make_protocol("select-and-send", 1 << 20);
  std::vector<double> xs, ys;
  for (node_id n = 32; n <= 512; n *= 2) {
    // radiocast-analyze: allow(taint) -- the size n is the fixed seed: each
    // size gets its own graph, identical on every run
    rng gen(static_cast<std::uint64_t>(n));
    graph g = make_random_tree(n, gen);
    run_options opts;
    opts.max_steps = 50'000'000;
    opts.stop = stop_condition::all_halted;
    const run_result r = run_broadcast(g, *proto, opts);
    ASSERT_TRUE(r.completed);
    xs.push_back(static_cast<double>(n));
    ys.push_back(static_cast<double>(r.steps));
  }
  const fit_result f =
      fit_scaled(xs, ys, [](double x) { return x * std::log2(x); });
  EXPECT_GT(f.r_squared, 0.95);
}

TEST(IntegrationTest, SparseLabelSpacesWork) {
  // §1.3: nodes know only r = O(n); labels may be any distinct subset of
  // {0..r}. Every protocol must still complete under a sparse labeling.
  rng gen(19);
  graph g = make_complete_layered_uniform(64, 8);
  const node_id r = 255;  // 4x sparser than {0..n-1}
  const std::vector<node_id> labels = sparse_labels(64, r, gen);
  for (const std::string name :
       {"decay", "kp", "round-robin", "select-and-send", "complete-layered",
        "interleaved"}) {
    const auto proto = make_protocol(name, r, 8);
    run_options opts;
    opts.max_steps = 10'000'000;
    opts.seed = 23;
    opts.labels = labels;
    const run_result res = run_broadcast_with_r(g, *proto, r, opts);
    EXPECT_TRUE(res.completed) << name;
  }
}

TEST(IntegrationTest, LabelValidationRejectsBadInputs) {
  graph g = make_path(4);
  const auto proto = make_protocol("round-robin", 7);
  run_options opts;
  opts.labels = {0, 1, 2};  // wrong size
  EXPECT_THROW(run_broadcast_with_r(g, *proto, 7, opts), precondition_error);
  opts.labels = {1, 0, 2, 3};  // source not labeled 0
  EXPECT_THROW(run_broadcast_with_r(g, *proto, 7, opts), precondition_error);
  opts.labels = {0, 1, 1, 3};  // duplicate
  EXPECT_THROW(run_broadcast_with_r(g, *proto, 7, opts), precondition_error);
  opts.labels = {0, 1, 2, 9};  // out of range
  EXPECT_THROW(run_broadcast_with_r(g, *proto, 7, opts), precondition_error);
  opts.labels = {0, 3, 5, 7};  // valid sparse labeling
  EXPECT_NO_THROW(run_broadcast_with_r(g, *proto, 7, opts));
}

TEST(IntegrationTest, SparseLabelsHelperProperties) {
  rng gen(4);
  const auto labels = sparse_labels(10, 99, gen);
  ASSERT_EQ(labels.size(), 10u);
  EXPECT_EQ(labels[0], 0);
  std::set<node_id> seen(labels.begin(), labels.end());
  EXPECT_EQ(seen.size(), 10u);  // distinct
  for (node_id l : labels) {
    EXPECT_GE(l, 0);
    EXPECT_LE(l, 99);
  }
  EXPECT_THROW(sparse_labels(10, 8, gen), precondition_error);
}

TEST(IntegrationTest, DirectedLayeredNetworksWorkForRandomized) {
  graph dir = make_complete_layered_uniform(128, 8).as_directed();
  for (const std::string name : {"decay", "kp"}) {
    const auto proto = make_protocol(name, 127, 8);
    run_options opts;
    opts.seed = 17;
    const run_result r = run_broadcast(dir, *proto, opts);
    EXPECT_TRUE(r.completed) << name;
  }
}

}  // namespace
}  // namespace radiocast
