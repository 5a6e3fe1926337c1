// Larger-scale smoke tests: the sizes the benchmark harnesses run at,
// exercised once each under the test runner so regressions in asymptotic
// behavior (not just correctness) fail CI. Budgeted to stay under ~30 s.
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/lower_bound_builder.h"
#include "core/runner.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "sim/simulator.h"

namespace radiocast {
namespace {

TEST(StressTest, KpOnLargeWorstCaseFamily) {
  const node_id n = 8192;
  const int d = 512;
  graph g = make_complete_layered_uniform(n, d);
  const auto proto = make_protocol("kp", n - 1, d);
  run_options opts;
  opts.seed = 2;
  opts.max_steps = 2'000'000;
  const run_result res = run_broadcast(g, *proto, opts);
  ASSERT_TRUE(res.completed);
  // Generous shape bound: c·(D log(n/D) + log²n).
  const double bound = 40.0 * (d * std::log2(16.0) + 169.0);
  EXPECT_LT(static_cast<double>(res.informed_step), bound);
}

TEST(StressTest, DecayOnLargeSparseNetwork) {
  rng gen(3);
  const node_id n = 8192;
  graph g = make_gnp_connected(n, 3.0 / n, gen);
  const auto proto = make_protocol("decay", n - 1);
  run_options opts;
  opts.seed = 4;
  opts.max_steps = 5'000'000;
  EXPECT_TRUE(run_broadcast(g, *proto, opts).completed);
}

TEST(StressTest, SelectAndSendOnLongPath) {
  const node_id n = 4096;
  graph g = make_path(n);
  const auto proto = make_protocol("select-and-send", n - 1);
  run_options opts;
  opts.max_steps = 50'000'000;
  opts.stop = stop_condition::all_halted;
  const run_result res = run_broadcast(g, *proto, opts);
  ASSERT_TRUE(res.completed);
  EXPECT_LT(res.steps, 8 * static_cast<std::int64_t>(n));  // ≈ 2·4 per hop
}

TEST(StressTest, CompleteLayeredOnWideNetwork) {
  const node_id n = 8192;
  const int d = 16;
  graph g = make_complete_layered_uniform(n, d);  // 512-wide layers
  const auto proto = make_protocol("complete-layered", n - 1);
  run_options opts;
  opts.max_steps = 10'000'000;
  const run_result res = run_broadcast(g, *proto, opts);
  ASSERT_TRUE(res.completed);
  EXPECT_LT(res.informed_step, 2 * n);
}

TEST(StressTest, AdversaryAtBenchScale) {
  const node_id n = 4096;
  const int d = 16;
  const auto proto = make_protocol("round-robin", n - 1);
  const adversarial_network net = build_adversarial_network(*proto, n, d);
  ASSERT_FALSE(net.stuck);
  EXPECT_EQ(radius_from(net.g), d);
  run_options opts;
  opts.max_steps = 100'000'000;
  const run_result res = run_broadcast(net.g, *proto, opts);
  ASSERT_TRUE(res.completed);
  EXPECT_GE(res.informed_step, net.forced_steps);
}

TEST(StressTest, SoaEngineOnHundredThousandNodeLayeredNetwork) {
  // The struct-of-arrays engine at the scale the mega benchmark runs:
  // fat-first layered keeps essentially every node awake from step 1 on,
  // which is the layout's worst case for state volume and best case for
  // exposing quadratic slips (a per-step O(n²) scan would blow the step
  // budget's wall-clock instantly at n = 10⁵).
  const node_id n = 100'000;
  graph g = make_complete_layered_fat(n, 64, /*fat_index=*/1);
  const auto proto = make_protocol("decay", n - 1);
  run_options opts;
  opts.seed = 12;
  opts.max_steps = 2'000'000;
  opts.engine = step_engine::soa;
  const run_result res = run_broadcast(g, *proto, opts);
  ASSERT_TRUE(res.completed);
  // 63 thin-layer hops, each a Decay phase of 2·⌈log₂(r+1)⌉ = 34 steps
  // with O(log n) expected phases per hop: tens of thousands of steps is
  // sane, millions is not.
  EXPECT_LT(res.informed_step, 200'000);
}

TEST(StressTest, SoaEngineOnHundredThousandNodeSparseGnp) {
  rng gen(13);
  const node_id n = 100'000;
  graph g = make_gnp_sparse_connected(n, 3.0 / n, gen);
  const auto proto = make_protocol("decay", n - 1);
  run_options opts;
  opts.seed = 14;
  opts.max_steps = 2'000'000;
  opts.engine = step_engine::soa;
  const run_result res = run_broadcast(g, *proto, opts);
  ASSERT_TRUE(res.completed);
  // Diameter of G(n, 3/n) is O(log n); Decay pays O(log² n) per hop.
  EXPECT_LT(res.informed_step, 100'000);
}

TEST(StressTest, SoaMatchesPollingAtScale) {
  // Record-level spot check at a size the differential matrix (which runs
  // every engine × fault × thread combination on small graphs) cannot
  // afford: one seed, n = 50k, the SoA traits vs the virtual_view walk
  // over the bank's virtual hooks must agree exactly.
  const node_id n = 50'000;
  graph g = make_complete_layered_fat(n, 32, /*fat_index=*/1);
  const auto proto = make_protocol("decay", n - 1);
  run_options opts;
  opts.seed = 15;
  opts.max_steps = 2'000'000;
  opts.engine = step_engine::soa;
  const run_result soa = run_broadcast(g, *proto, opts);
  const run_result poll = run_broadcast(g, virtual_view(*proto), opts);
  ASSERT_TRUE(soa.completed);
  EXPECT_EQ(soa.steps, poll.steps);
  EXPECT_EQ(soa.informed_step, poll.informed_step);
  EXPECT_EQ(soa.transmissions, poll.transmissions);
  EXPECT_EQ(soa.collisions, poll.collisions);
  EXPECT_EQ(soa.deliveries, poll.deliveries);
  EXPECT_EQ(soa.informed_at, poll.informed_at);
}

// Engine-matching helper for the deterministic-protocol scale checks
// below: one seed, the soa calendar vs the virtual_view walk that polls
// every awake node, every record field exact. The token protocols keep
// all informed nodes in the awake set, so sizes here are bounded by
// steps × awake ≈ n² — a few thousand nodes is already well past what the
// differential matrix runs.
void expect_soa_matches_polling(const graph& g, const protocol& proto,
                                run_options opts) {
  opts.engine = step_engine::soa;
  const run_result soa = run_broadcast(g, proto, opts);
  const run_result poll = run_broadcast(g, virtual_view(proto), opts);
  EXPECT_EQ(soa.completed, poll.completed);
  EXPECT_EQ(soa.steps, poll.steps);
  EXPECT_EQ(soa.informed_step, poll.informed_step);
  EXPECT_EQ(soa.transmissions, poll.transmissions);
  EXPECT_EQ(soa.collisions, poll.collisions);
  EXPECT_EQ(soa.deliveries, poll.deliveries);
  EXPECT_EQ(soa.informed_at, poll.informed_at);
}

TEST(StressTest, SelectAndSendSoaMatchesPollingOnLongPath) {
  const node_id n = 8192;
  graph g = make_path(n);
  const auto proto = make_protocol("select-and-send", n - 1);
  run_options opts;
  opts.max_steps = 50'000'000;
  opts.stop = stop_condition::all_halted;
  expect_soa_matches_polling(g, *proto, opts);
}

TEST(StressTest, CompleteLayeredSoaMatchesPollingOnWideNetwork) {
  const node_id n = 8192;
  graph g = make_complete_layered_uniform(n, 16);  // 512-wide layers
  const auto proto = make_protocol("complete-layered", n - 1);
  run_options opts;
  opts.max_steps = 10'000'000;
  expect_soa_matches_polling(g, *proto, opts);
}

TEST(StressTest, InterleavedSoaMatchesPollingAtScale) {
  // Interleaved drives both of its halves at once — the even-step
  // round-robin stream and the odd-step select-and-send token — so this
  // exercises the composed begin_step schedule hoist at a size where a
  // modulus slip would visibly desynchronize the two engines.
  const node_id n = 4096;
  graph g = make_complete_layered_uniform(n, 64);
  const auto proto = make_protocol("interleaved", n - 1);
  run_options opts;
  opts.max_steps = 50'000'000;
  expect_soa_matches_polling(g, *proto, opts);
}

TEST(StressTest, GeometricFieldAtScale) {
  rng gen(7);
  graph g = make_random_geometric(2000, 0.05, gen);
  ASSERT_TRUE(is_connected(g));
  const int d = radius_from(g);
  const auto proto = make_protocol("kp", g.node_count() - 1,
                                   std::max(1, d));
  run_options opts;
  opts.seed = 6;
  opts.max_steps = 5'000'000;
  EXPECT_TRUE(run_broadcast(g, *proto, opts).completed);
}

}  // namespace
}  // namespace radiocast
