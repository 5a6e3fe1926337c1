// Robustness and failure-injection tests: misbehaving protocols, degenerate
// parameters, and defensive checks across the library's contract surface.
#include <gtest/gtest.h>

#include "adversary/lower_bound_builder.h"
#include "adversary/selective_family.h"
#include "core/echo.h"
#include "core/runner.h"
#include "core/universal_sequence.h"
#include "fault/churn.h"
#include "fault/crash.h"
#include "fault/jammer.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "sim/soa_engine.h"

namespace radiocast {
namespace {

// A protocol whose source never transmits: a broken broadcaster. Legal as
// an object, useless as an algorithm — used to exercise stuck-handling.
struct silent_soa_traits {
  struct state {
    bool informed = false;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    s->informed = label == 0;
  }
  std::optional<message> on_step(state*, const node_context&) const {
    return std::nullopt;
  }
  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
  }
  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }
  void on_restart(state*, const node_context&) const {}
};

silent_soa_traits silent_traits(node_id) { return {}; }

class silent_protocol final : public protocol {
 public:
  std::string name() const override { return "silent"; }
  bool deterministic() const override { return true; }
  std::unique_ptr<protocol_node> make_node(
      node_id label, const protocol_params& params) const override {
    return make_traits_node(silent_traits(params.r), label, params);
  }
  soa_entry soa_runner() const override {
    return &soa_entry_for<silent_traits>;
  }
};

// A protocol that breaks the source-starts-informed contract.
struct uninformed_source_soa_traits {
  struct state {};

  void init(state*, node_id, const protocol_params&) const {}
  std::optional<message> on_step(state*, const node_context&) const {
    return std::nullopt;
  }
  void on_receive(state*, const node_context&, const message&) const {}
  bool informed(const state&) const { return false; }  // even the source
  bool halted(const state&) const { return false; }
  void on_restart(state*, const node_context&) const {}
};

uninformed_source_soa_traits uninformed_source_traits(node_id) { return {}; }

class uninformed_source_protocol final : public protocol {
 public:
  std::string name() const override { return "broken-source"; }
  bool deterministic() const override { return true; }
  std::unique_ptr<protocol_node> make_node(
      node_id label, const protocol_params& params) const override {
    return make_traits_node(uninformed_source_traits(params.r), label,
                            params);
  }
  soa_entry soa_runner() const override {
    return &soa_entry_for<uninformed_source_traits>;
  }
};

TEST(RobustnessTest, SilentProtocolNeverCompletes) {
  graph g = make_path(4);
  const silent_protocol proto;
  run_options opts;
  opts.max_steps = 200;
  const run_result res = run_broadcast(g, proto, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.steps, 200);
  EXPECT_EQ(res.transmissions, 0);
}

TEST(RobustnessTest, BrokenSourceContractIsCaught) {
  graph g = make_path(3);
  const uninformed_source_protocol proto;
  EXPECT_THROW(run_broadcast(g, proto, {}), invariant_error);
}

TEST(RobustnessTest, AdversaryMarksStuckConstruction) {
  // Against a silent algorithm the builder waits for the source's first
  // transmission forever; with a small cap it must flag the result stuck
  // and still deliver a well-formed radius-D topology.
  const silent_protocol proto;
  adversary_options opts;
  opts.stage_wait_cap = 500;
  const adversarial_network net =
      build_adversarial_network(proto, 512, 8, opts);
  EXPECT_TRUE(net.stuck);
  EXPECT_EQ(net.g.node_count(), 512);
  EXPECT_TRUE(is_connected(net.g));
  EXPECT_EQ(radius_from(net.g), 8);
}

constexpr selection_kinds kSelKinds{1, 2};

// One selection step with helper 5 and label bound 7.
std::optional<message> sel_step(soa_selection* sel) {
  return sel_on_step(sel, kSelKinds, /*helper=*/5, /*bound=*/7, nullptr);
}

TEST(RobustnessTest, SelectionDriverRejectsUseAfterFinish) {
  soa_selection sel;
  EXPECT_THROW(sel_init(&sel, 0), precondition_error);  // empty label space
  sel_init(&sel, 7);
  // Drive one full echo with an "empty" outcome: order, silence, helper.
  (void)sel_step(&sel);
  (void)sel_step(&sel);
  (void)sel_step(&sel);
  sel_on_receive(&sel, kSelKinds, message{2, 5, 0, 0, 0, 0});  // step 2
  (void)sel_step(&sel);  // evaluate → empty_set
  ASSERT_TRUE(sel_finished(sel));
  EXPECT_FALSE(sel_selected(sel));
  EXPECT_THROW(sel_step(&sel), precondition_error);
}

TEST(RobustnessTest, SelectionDriverIgnoresForeignKinds) {
  soa_selection sel;
  sel_init(&sel, 7);
  (void)sel_step(&sel);
  (void)sel_step(&sel);
  sel_on_receive(&sel, kSelKinds, message{99, 3, 0, 0, 0, 0});  // ignored
  (void)sel_step(&sel);
  sel_on_receive(&sel, kSelKinds, message{2, 5, 0, 0, 0, 0});
  (void)sel_step(&sel);
  ASSERT_TRUE(sel_finished(sel));
  EXPECT_FALSE(sel_selected(sel));
}

TEST(RobustnessTest, ModularFamilyWithTooFewPrimesFails) {
  // One prime cannot separate pairs that collide modulo it: negative test
  // for the verifier + the construction's prime requirement.
  const set_family family = modular_selective_family(16, 2, 1);  // q = 2
  EXPECT_FALSE(is_selective(family, 16, 2));
}

TEST(RobustnessTest, UniversalSequenceDeterministic) {
  const universal_sequence a(14, 12);
  const universal_sequence b(14, 12);
  ASSERT_EQ(a.period(), b.period());
  for (std::int64_t i = 1; i <= a.period(); ++i) {
    ASSERT_EQ(a.exponent_at(i), b.exponent_at(i));
  }
}

TEST(RobustnessTest, UniversalSequenceAbsentExponentGap) {
  const universal_sequence seq(10, 8);
  // Exponent 0 (probability 1) never appears in the sequence.
  EXPECT_EQ(seq.max_cyclic_gap(0), seq.period() + 1);
  EXPECT_THROW(seq.exponent_at(0), precondition_error);  // 1-based index
}

TEST(RobustnessTest, RunnerValidatesLabelBound) {
  // kp protocols are built for a fixed r; running them with a larger label
  // space must be rejected, a smaller one is fine.
  graph small = make_path(8);
  const auto proto = make_protocol("kp", 7, 2);
  EXPECT_NO_THROW(run_broadcast(small, *proto, {}));
  graph big = make_path(32);
  run_options opts;
  opts.max_steps = 100;
  EXPECT_THROW(run_broadcast(big, *proto, opts), precondition_error);
}

TEST(RobustnessTest, EmptyGraphAndTinyGraphEdges) {
  EXPECT_THROW(graph::undirected(0), precondition_error);
  graph one = graph::undirected(1);
  EXPECT_EQ(one.node_count(), 1);
  EXPECT_EQ(radius_from(one), 0);
  EXPECT_TRUE(is_connected(one));
}

TEST(RobustnessTest, RunOptionsCapValidation) {
  graph g = make_path(2);
  const auto proto = make_protocol("round-robin", 1);
  run_options opts;
  opts.max_steps = 0;
  EXPECT_THROW(run_broadcast(g, *proto, opts), precondition_error);
}

TEST(RobustnessTest, CrashedSourceNeverCompletes) {
  // With the source crash-stopped at step 0 nobody ever transmits; the
  // run must time out (not complete vacuously) because uninformed live
  // nodes remain.
  rng gen(4);
  graph g = make_gnp_connected(24, 0.2, gen);
  const auto proto = make_protocol("decay", 23);
  fault::crash_options copts;
  copts.schedule = {{0, 0}};
  fault::crash_model crash(copts);
  run_options opts;
  opts.max_steps = 2'000;
  opts.faults = &crash;
  const run_result res = run_broadcast(g, *proto, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.crashed_nodes, 1);
  EXPECT_EQ(res.transmissions, 0);
  EXPECT_EQ(res.deliveries, 0);
}

TEST(RobustnessTest, JammerZeroBudgetIsNoOp) {
  // Budget 0 must be bit-identical to the fault-free run for both
  // strategies: every run_result field, including the per-node vectors.
  rng gen(12);
  graph g = make_gnp_connected(40, 0.15, gen);
  const auto proto = make_protocol("decay", 39);
  run_options opts;
  opts.seed = 77;
  opts.max_steps = 20'000;
  const run_result base = run_broadcast(g, *proto, opts);
  for (const auto strategy : {fault::jam_strategy::oblivious_random,
                              fault::jam_strategy::greedy_frontier}) {
    fault::jammer_model jam(fault::jammer_options{0, strategy});
    opts.faults = &jam;
    const run_result res = run_broadcast(g, *proto, opts);
    EXPECT_EQ(res.completed, base.completed);
    EXPECT_EQ(res.steps, base.steps);
    EXPECT_EQ(res.informed_step, base.informed_step);
    EXPECT_EQ(res.transmissions, base.transmissions);
    EXPECT_EQ(res.collisions, base.collisions);
    EXPECT_EQ(res.deliveries, base.deliveries);
    EXPECT_EQ(res.informed_at, base.informed_at);
    EXPECT_EQ(res.transmissions_per_node, base.transmissions_per_node);
    EXPECT_EQ(res.suppressed_deliveries, 0);
    EXPECT_EQ(jam.jammed_count(), 0);
  }
}

TEST(RobustnessTest, ChurnPreservingConnectivityStillCompletes) {
  // Aggressive flapping of every non-tree edge: the churn-exempt spanning
  // tree keeps the broadcast solvable, so decay must still finish.
  rng gen(9);
  graph g = make_gnp_connected(32, 0.25, gen);
  const auto proto = make_protocol("decay", 31);
  fault::churn_model churn(fault::churn_options{0.3});
  run_options opts;
  opts.seed = 5;
  opts.max_steps = 100'000;
  opts.faults = &churn;
  const run_result res = run_broadcast(g, *proto, opts);
  EXPECT_TRUE(res.completed);
  EXPECT_GT(res.churned_edges, 0);
  EXPECT_GT(churn.eligible_edge_count(), 0u);
}

}  // namespace
}  // namespace radiocast
