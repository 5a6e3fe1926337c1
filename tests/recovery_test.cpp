// Crash-recovery and partition-tolerance semantics (fault/recovery.h,
// fault/partition.h, and the simulator plumbing behind them):
//
//   * retain rejoin — a node comes back with its state intact, re-enters
//     completion accounting, and an uninformed rejoiner must still be
//     informed before the run can complete;
//   * amnesia rejoin — the simulator calls on_restart, evicts the node
//     from the informed set, and the node's final informed_at reflects the
//     RE-delivery, not the original one;
//   * completion waits for pending recoveries (a down-but-returning node
//     blocks "everyone informed");
//   * partition-tolerant accounting — run_result::{reachable_nodes,
//     informed_reachable} and run_outcome split timeouts into "stuck" vs
//     "unreachable", and a crashed source is its own terminal outcome
//     (informed_reachable == 0: the source's own copy of the message died
//     with it);
//   * determinism: same seed ⇒ identical schedules and results, and both
//     step engines agree.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/runner.h"
#include "fault/crash.h"
#include "fault/fault_model.h"
#include "fault/loss.h"
#include "fault/partition.h"
#include "fault/recovery.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "util/rng.h"

namespace radiocast {
namespace {

run_result run_with(const graph& g, const protocol& proto,
                    fault::fault_model* faults, std::uint64_t seed = 11,
                    std::int64_t max_steps = 50'000,
                    step_engine engine = step_engine::soa) {
  run_options opts;
  opts.seed = seed;
  opts.max_steps = max_steps;
  opts.faults = faults;
  opts.engine = engine;
  return run_broadcast(g, proto, opts);
}

void expect_identical(const run_result& a, const run_result& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.informed_step, b.informed_step);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.informed_at, b.informed_at);
  EXPECT_EQ(a.transmissions_per_node, b.transmissions_per_node);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
  EXPECT_EQ(a.suppressed_deliveries, b.suppressed_deliveries);
  EXPECT_EQ(a.churned_edges, b.churned_edges);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.reachable_nodes, b.reachable_nodes);
  EXPECT_EQ(a.informed_reachable, b.informed_reachable);
  EXPECT_EQ(a.outcome, b.outcome);
}

// ---------- retain-mode rejoin ----------

TEST(RecoveryTest, RetainRejoinerIsInformedBeforeCompletion) {
  // Crash a star leaf before the first step with a deterministic rejoin:
  // the run may only complete after the leaf is back AND informed.
  graph g = make_star(6);
  const auto proto = make_protocol("decay", 5);
  fault::recovery_options opts;
  opts.schedule = {{3, 0}};
  opts.mode = fault::recovery_mode::retain;
  opts.downtime = 7;
  fault::recovery_model faults(opts);
  const run_result res = run_with(g, *proto, &faults);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.outcome, run_outcome::completed);
  EXPECT_EQ(res.crashed_nodes, 1);
  EXPECT_EQ(res.recoveries, 1);
  // Down from step 0 through step 6: the first informing delivery can land
  // at step 7 at the earliest.
  EXPECT_GE(res.informed_at[3], 7);
  EXPECT_EQ(res.reachable_nodes, 6);
  EXPECT_EQ(res.informed_reachable, 6);
}

TEST(RecoveryTest, CompletionWaitsForPendingRecoveries) {
  // All surviving leaves are informed long before step 40, but one leaf is
  // down with a scheduled return — the run must not complete before it
  // rejoins (and is then informed).
  graph g = make_star(6);
  const auto proto = make_protocol("decay", 5);
  fault::recovery_options opts;
  opts.schedule = {{4, 0}};
  opts.mode = fault::recovery_mode::retain;
  opts.downtime = 40;
  fault::recovery_model faults(opts);
  const run_result res = run_with(g, *proto, &faults);
  EXPECT_TRUE(res.completed);
  EXPECT_GE(res.steps, 40);
  EXPECT_GE(res.informed_at[4], 40);
}

TEST(RecoveryTest, PermanentCrashDegeneratesToCrashStop) {
  // Neither downtime nor recovery probability: nobody returns, and the
  // semantics collapse to crash_model's (completion over the survivors).
  graph g = make_star(6);
  const auto proto = make_protocol("decay", 5);
  fault::recovery_options opts;
  opts.schedule = {{3, 0}};
  fault::recovery_model faults(opts);
  const run_result res = run_with(g, *proto, &faults);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.recoveries, 0);
  EXPECT_EQ(res.informed_at[3], -1);
  // The crashed leaf is not reachable over live nodes, and completion
  // still reports a full sweep of what WAS reachable.
  EXPECT_EQ(res.reachable_nodes, 5);
  EXPECT_EQ(res.informed_reachable, 5);
}

// ---------- amnesia-mode rejoin ----------

TEST(RecoveryTest, AmnesiaRejoinerIsReinformed) {
  // Let a path relay get informed first, then crash it with state loss
  // while the broadcast is still working down the path: its final
  // informed_at must move to a later (re-delivery) step.
  graph g = make_path(5);
  const auto proto = make_protocol("decay", 4);
  const run_result base = run_with(g, *proto, nullptr);
  ASSERT_TRUE(base.completed);
  const std::int64_t informed_step = base.informed_at[1];
  ASSERT_GE(informed_step, 0);
  ASSERT_GT(base.informed_at[4], informed_step + 1);  // run outlives the crash

  fault::recovery_options opts;
  opts.schedule = {{1, informed_step + 1}};
  opts.mode = fault::recovery_mode::amnesia;
  opts.downtime = 3;
  fault::recovery_model faults(opts);
  const run_result res = run_with(g, *proto, &faults);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.outcome, run_outcome::completed);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_GT(res.informed_at[1], informed_step);
  EXPECT_EQ(res.informed_reachable, 5);
}

TEST(RecoveryTest, AmnesiaTraceCarriesTheStateLossFlag) {
  graph g = make_star(6);
  const auto proto = make_protocol("decay", 5);
  fault::recovery_options opts;
  opts.schedule = {{2, 0}};
  opts.mode = fault::recovery_mode::amnesia;
  opts.downtime = 5;
  fault::recovery_model faults(opts);
  trace tr;
  run_options ropts;
  ropts.seed = 11;
  ropts.max_steps = 50'000;
  ropts.faults = &faults;
  ropts.sink = &tr;
  const run_result res = run_broadcast(g, *proto, ropts);
  EXPECT_TRUE(res.completed);
  const auto recs = tr.filter(trace_event::type::recover);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].node, 2);
  EXPECT_EQ(recs[0].step, 5);
  EXPECT_EQ(recs[0].msg.a, 1);  // amnesia flag

  // Retain-mode rejoins carry a zero flag.
  opts.mode = fault::recovery_mode::retain;
  fault::recovery_model retain(opts);
  trace tr2;
  ropts.faults = &retain;
  ropts.sink = &tr2;
  run_broadcast(g, *proto, ropts);
  const auto recs2 = tr2.filter(trace_event::type::recover);
  ASSERT_EQ(recs2.size(), 1u);
  EXPECT_EQ(recs2[0].msg.a, 0);
}

TEST(RecoveryTest, GeometricRecoveryEventuallyRejoinsEveryone) {
  // Probability-only rejoin under repeated probabilistic crashes: the run
  // still completes (recoveries outpace permanent loss), and crash events
  // balance against rejoin events plus the population still down.
  rng gen(29);
  const graph g = make_gnp_connected(32, 0.15, gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  fault::recovery_options opts;
  opts.crash_probability = 0.003;
  opts.mode = fault::recovery_mode::amnesia;
  opts.recovery_probability = 0.2;
  fault::recovery_model faults(opts);
  const run_result res = run_with(g, *proto, &faults, 17);
  EXPECT_TRUE(res.completed);
  EXPECT_GT(res.crashed_nodes, 0);
  EXPECT_GE(res.crashed_nodes, res.recoveries);
  // Completion requires a settled roster: nobody still pending.
  EXPECT_EQ(faults.pending_recoveries(), 0);
}

// ---------- crashed-source accounting (regression) ----------

TEST(RecoveryTest, CrashedSourceIsSourceLostWithNothingReachable) {
  // The source dies before informing anyone. The broadcast is over — and
  // the accounting must say so distinctly: outcome source_lost, with
  // informed_reachable == 0 (the message itself is gone, so not even the
  // source counts as an informed survivor).
  graph g = make_path(4);
  const auto proto = make_protocol("decay", 3);
  fault::crash_options opts;
  opts.schedule = {{0, 0}};
  fault::crash_model faults(opts);
  const run_result res = run_with(g, *proto, &faults, 11, 2'000);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.outcome, run_outcome::source_lost);
  EXPECT_EQ(res.reachable_nodes, 0);
  EXPECT_EQ(res.informed_reachable, 0);
  EXPECT_EQ(res.deliveries, 0);
  // Message extinction: the simulator notices no live node holds the
  // message and stops early instead of burning the full step budget.
  EXPECT_LT(res.steps, 2'000);
}

TEST(RecoveryTest, SourceCrashAfterHandoffStillCompletes) {
  // Once a relay holds the message the source is expendable: the run
  // completes and reports `completed`, not `source_lost`.
  graph g = make_path(3);
  const auto proto = make_protocol("decay", 2);
  const run_result base = run_with(g, *proto, nullptr);
  ASSERT_TRUE(base.completed);
  ASSERT_GE(base.informed_at[1], 0);

  fault::crash_options opts;
  opts.schedule = {{0, base.informed_at[1] + 1}};
  fault::crash_model faults(opts);
  const run_result res = run_with(g, *proto, &faults);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.outcome, run_outcome::completed);
  EXPECT_EQ(res.informed_at[2], base.informed_at[2]);
}

// ---------- partition-tolerant outcomes ----------

TEST(RecoveryTest, FrontierCutAdversaryDrivesUnreachable) {
  // Budget 1 on a path beheads the frontier every step: the informed
  // prefix dies, the uninformed suffix is cut off, and the timeout is
  // classified "unreachable" — every reachable survivor IS informed.
  graph g = make_path(6);
  const auto proto = make_protocol("decay", 5);
  fault::frontier_cut_options opts;
  opts.budget_per_step = 1;
  fault::frontier_cut_model faults(opts);
  const run_result res = run_with(g, *proto, &faults, 11, 500);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.outcome, run_outcome::unreachable);
  EXPECT_GT(res.crashed_nodes, 0);
  EXPECT_LT(res.reachable_nodes, 6);
  EXPECT_EQ(res.informed_reachable, res.reachable_nodes);
}

TEST(RecoveryTest, PlainTimeoutIsStuckNotUnreachable) {
  // A run that times out with the graph fully intact still has reachable
  // uninformed nodes: "stuck", and reachable_nodes covers everyone.
  graph g = make_path(16);
  const auto proto = make_protocol("decay", 15);
  fault::loss_options lopts{1.0};
  fault::loss_model faults(lopts);
  const run_result res = run_with(g, *proto, &faults, 11, 64);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.outcome, run_outcome::stuck);
  EXPECT_EQ(res.reachable_nodes, 16);
  EXPECT_EQ(res.informed_reachable, 1);  // just the source
}

TEST(RecoveryTest, PartitionWindowsCloseAndBroadcastCompletes) {
  rng gen(31);
  const graph g = make_gnp_connected(30, 0.15, gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  fault::partition_options opts;
  opts.period = 20;
  opts.duration = 6;
  opts.island_fraction = 0.3;
  fault::partition_model faults(opts);
  const run_result res = run_with(g, *proto, &faults, 13);
  EXPECT_TRUE(res.completed);
  EXPECT_GT(faults.windows_opened(), 0);
  EXPECT_GT(res.churned_edges, 0);
  EXPECT_EQ(res.outcome, run_outcome::completed);
}

TEST(RecoveryTest, RunOutcomeNamesAreStable) {
  EXPECT_STREQ(run_outcome_name(run_outcome::completed), "completed");
  EXPECT_STREQ(run_outcome_name(run_outcome::stuck), "stuck");
  EXPECT_STREQ(run_outcome_name(run_outcome::unreachable), "unreachable");
  EXPECT_STREQ(run_outcome_name(run_outcome::source_lost), "source_lost");
}

// ---------- determinism and engine agreement ----------

TEST(RecoveryTest, RecoveryScheduleIsSeedDeterministic) {
  rng gen(37);
  const graph g = make_gnp_connected(28, 0.15, gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  for (const auto mode :
       {fault::recovery_mode::retain, fault::recovery_mode::amnesia}) {
    fault::recovery_options opts;
    opts.crash_probability = 0.004;
    opts.mode = mode;
    opts.downtime = 5;
    opts.recovery_probability = 0.05;
    fault::recovery_model faults(opts);
    const run_result a = run_with(g, *proto, &faults, 23);
    const run_result b = run_with(g, *proto, &faults, 23);
    expect_identical(a, b);
  }
}

TEST(RecoveryTest, EnginesAgreeUnderRecoveryAndPartition) {
  rng gen(41);
  const graph g = make_gnp_connected(26, 0.15, gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);

  fault::recovery_options ropts;
  ropts.crash_probability = 0.005;
  ropts.mode = fault::recovery_mode::amnesia;
  ropts.downtime = 4;
  fault::recovery_model recovery(ropts);
  expect_identical(
      run_with(g, *proto, &recovery, 7, 50'000, step_engine::soa),
      run_with(g, *proto, &recovery, 7, 50'000, step_engine::reference));

  fault::partition_options popts;
  popts.toggle_probability = 0.02;
  popts.period = 24;
  popts.duration = 8;
  fault::partition_model partition(popts);
  expect_identical(
      run_with(g, *proto, &partition, 7, 50'000, step_engine::soa),
      run_with(g, *proto, &partition, 7, 50'000, step_engine::reference));
}

// ---------- option validation ----------

TEST(RecoveryTest, OptionsValidated) {
  {
    fault::recovery_options o;
    o.crash_probability = 1.5;
    EXPECT_THROW(fault::recovery_model{o}, precondition_error);
  }
  {
    fault::recovery_options o;
    o.recovery_probability = -0.1;
    EXPECT_THROW(fault::recovery_model{o}, precondition_error);
  }
  {
    fault::recovery_options o;
    o.downtime = -1;
    EXPECT_THROW(fault::recovery_model{o}, precondition_error);
  }
  {
    fault::partition_options o;
    o.period = 10;
    o.duration = 10;  // must be < period
    EXPECT_THROW(fault::partition_model{o}, precondition_error);
  }
  {
    fault::frontier_cut_options o;
    o.budget_per_step = -1;
    EXPECT_THROW(fault::frontier_cut_model{o}, precondition_error);
  }
}

}  // namespace
}  // namespace radiocast
