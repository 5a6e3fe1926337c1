// Chaos harness tests (fault/chaos.h): the sampled sweep is violation-free
// on the real simulator, a deliberately broken fault model is CAUGHT by the
// right invariants, and the radiocast.chaos.v1 report writer/validator
// agree with each other (and reject corrupted documents).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.h"
#include "fault/chaos.h"
#include "fault/fault_model.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "util/rng.h"

namespace radiocast {
namespace {

std::size_t iv(fault::chaos_invariant inv) {
  return static_cast<std::size_t>(inv);
}

// ---------- clean sweeps ----------

TEST(ChaosTest, SampledSweepIsViolationFree) {
  fault::chaos_options opts;
  opts.runs = 40;
  opts.base_seed = 5;
  opts.max_steps = 800;
  const fault::chaos_report rep = fault::run_chaos(opts);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.runs, 40);
  EXPECT_EQ(rep.failed_runs, 0);
  EXPECT_TRUE(rep.failures.empty());
  std::int64_t total_checks = 0;
  for (const fault::invariant_stats& s : rep.invariants) {
    EXPECT_EQ(s.violations, 0);
    total_checks += s.checks;
  }
  EXPECT_GT(total_checks, 0);
  // The structural invariants fire on every run; they must have been
  // exercised many times over 40 scenarios.
  EXPECT_GT(rep.invariants[iv(fault::chaos_invariant::exactly_one_transmitter)]
                .checks,
            0);
  EXPECT_GT(
      rep.invariants[iv(fault::chaos_invariant::engine_bit_identity)].checks,
      0);
  EXPECT_GT(
      rep.invariants[iv(fault::chaos_invariant::completion_semantics)].checks,
      0);
}

TEST(ChaosTest, SweepIsDeterministic) {
  fault::chaos_options opts;
  opts.runs = 8;
  opts.base_seed = 42;
  opts.max_steps = 400;
  const fault::chaos_report a = fault::run_chaos(opts);
  const fault::chaos_report b = fault::run_chaos(opts);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ChaosTest, CleanScenarioPassesEveryInvariant) {
  // Aim check_scenario at a known-good composition directly (fault-free,
  // so the model pointer is null and zero-intensity is trivially off).
  rng gen(7);
  const graph g = make_gnp_connected(24, 0.2, gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  const fault::scenario_check_result res =
      fault::check_scenario(g, *proto, nullptr, 3, 5'000, false);
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.violations.empty());
  EXPECT_GT(res.checks[iv(fault::chaos_invariant::exactly_one_transmitter)],
            0);
}

// ---------- a broken model is caught ----------

/// Deliberately violates the determinism contract: begin_run fails to
/// reset the run counter, so the model downs edge (0,1) permanently on its
/// FIRST run and does nothing on later runs — while clone() (correctly)
/// starts fresh. The serial soa run and the reference run therefore see
/// different fault schedules, and the reference run's trace-replay oracle
/// (driven by a fresh clone) sees deliveries crossing an edge the replay
/// says is down.
class two_faced_churn final : public fault::fault_model {
 public:
  std::string name() const override { return "two_faced_churn"; }
  void begin_run(const fault::run_view& view) override {
    (void)view;
    ++runs_;  // BUG: run state survives begin_run
  }
  void begin_step(const fault::step_view& view,
                  fault::step_faults* out) override {
    if (runs_ == 1 && view.step == 0) out->edges_down.push_back({0, 1});
  }
  std::unique_ptr<fault::fault_model> clone() const override {
    return std::make_unique<two_faced_churn>();
  }

 private:
  int runs_ = 0;
};

TEST(ChaosTest, BrokenModelIsCaughtByDownEdgeAndBitIdentityInvariants) {
  const graph g = make_path(3);
  const auto proto = make_protocol("decay", 2);
  two_faced_churn broken;
  const fault::scenario_check_result res =
      fault::check_scenario(g, *proto, &broken, 9, 64, false);
  EXPECT_FALSE(res.ok());
  // The serial soa run (the model's run #1) matches its replay clone; the
  // reference run (run #2) does not: the replay expects the down edge the
  // stale model no longer produces…
  EXPECT_GT(
      res.violation_counts[iv(fault::chaos_invariant::fault_schedule_replay)],
      0);
  // …so the reference trace delivers 0→1 over an edge the oracle holds
  // down…
  EXPECT_GT(res.violation_counts[iv(
                fault::chaos_invariant::no_delivery_over_down_edge)],
            0);
  // …and the two engines' runs cannot be byte-identical.
  EXPECT_GT(
      res.violation_counts[iv(fault::chaos_invariant::engine_bit_identity)],
      0);
  EXPECT_FALSE(res.violations.empty());
}

TEST(ChaosTest, BrokenModelFailureSurfacesInTheReportPipeline) {
  // The same defect driven through run_chaos-style accounting: fold a
  // failing scenario_check_result into per-invariant stats the way the
  // report does, and the document still validates (the schema is about
  // structure, not innocence).
  const graph g = make_path(3);
  const auto proto = make_protocol("decay", 2);
  two_faced_churn broken;
  const fault::scenario_check_result res =
      fault::check_scenario(g, *proto, &broken, 9, 64, false);
  ASSERT_FALSE(res.ok());

  fault::chaos_report rep;
  rep.config.runs = 1;
  rep.runs = 1;
  rep.failed_runs = 1;
  for (std::size_t i = 0; i < fault::kChaosInvariantCount; ++i) {
    rep.invariants[i].checks = res.checks[i];
    rep.invariants[i].violations = res.violation_counts[i];
  }
  fault::chaos_failure f;
  f.seed = 9;
  f.scenario = "path(n=3) proto=decay two_faced_churn";
  f.invariant =
      fault::chaos_invariant_name(res.violations.front().invariant);
  f.detail = res.violations.front().detail;
  rep.failures.push_back(f);

  EXPECT_FALSE(rep.ok());
  std::vector<std::string> errors;
  EXPECT_TRUE(fault::validate_chaos_report(rep.to_json(), &errors))
      << (errors.empty() ? "" : errors.front());
}

// ---------- a broken SoA phase merge is caught ----------

TEST(ChaosTest, BrokenSoaPhaseMergeIsCaughtByBitIdentity) {
  // A dense G(n, p) graph keeps many simultaneous transmitters with
  // DIFFERENT neighborhoods alive for many steps, so with 4 shards of
  // grain 1 the phase-2 reduction genuinely splits the transmitter set:
  // several shards touch the same listeners in different orders, and only
  // the ORDERED merge reproduces the serial engine's first-touch order
  // (hence its trace event order). debug_unordered_merge reverses the
  // shard merge — arrival COUNTS still agree (sums commute), so nothing
  // but the byte-for-byte engine_bit_identity contract can see the
  // corruption. It must. (A complete or complete-layered topology would
  // mask the reversal: interchangeable transmitters produce the same
  // first-touch order no matter which shard merges first.)
  rng topo_gen(31);
  const graph g = make_gnp_connected(40, 0.3, topo_gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  fault::soa_check_options sabotage;
  sabotage.step_threads = 4;
  sabotage.step_shard_grain = 1;
  sabotage.debug_unordered_merge = true;
  const fault::scenario_check_result broken = fault::check_scenario(
      g, *proto, nullptr, 13, 4'000, false, sabotage);
  EXPECT_FALSE(broken.ok());
  EXPECT_GT(
      broken.violation_counts[iv(fault::chaos_invariant::engine_bit_identity)],
      0);
  EXPECT_FALSE(broken.violations.empty());

  // The identical scenario with the honest merge is violation-free —
  // the sabotage knob, not the sharding, is what broke it.
  fault::soa_check_options honest = sabotage;
  honest.debug_unordered_merge = false;
  const fault::scenario_check_result clean = fault::check_scenario(
      g, *proto, nullptr, 13, 4'000, false, honest);
  EXPECT_TRUE(clean.ok());
}

// ---------- report schema and validator ----------

TEST(ChaosTest, ReportRoundTripsThroughDumpAndParse) {
  fault::chaos_options opts;
  opts.runs = 6;
  opts.base_seed = 11;
  opts.max_steps = 300;
  const fault::chaos_report rep = fault::run_chaos(opts);
  const obs::json_value doc = rep.to_json();

  const obs::json_value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "radiocast.chaos.v1");

  std::string error;
  const auto parsed = obs::json_parse(doc.dump(2), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, doc);

  std::vector<std::string> errors;
  EXPECT_TRUE(fault::validate_chaos_report(*parsed, &errors))
      << (errors.empty() ? "" : errors.front());
  EXPECT_TRUE(errors.empty());
}

TEST(ChaosTest, ValidatorRejectsCorruptedReports) {
  fault::chaos_options opts;
  opts.runs = 4;
  opts.base_seed = 3;
  opts.max_steps = 300;
  const fault::chaos_report rep = fault::run_chaos(opts);
  const obs::json_value good = rep.to_json();
  ASSERT_TRUE(fault::validate_chaos_report(good));

  {  // negative run count
    obs::json_value doc = good;
    doc.set("runs", -1);
    EXPECT_FALSE(fault::validate_chaos_report(doc));
  }
  {  // more failed runs than runs
    obs::json_value doc = good;
    doc.set("failed_runs", rep.runs + 1);
    EXPECT_FALSE(fault::validate_chaos_report(doc));
  }
  {  // ok flag contradicting failed_runs
    obs::json_value doc = good;
    doc.set("ok", false);
    std::vector<std::string> errors;
    EXPECT_FALSE(fault::validate_chaos_report(doc, &errors));
    EXPECT_FALSE(errors.empty());
  }
  {  // wrong schema tag
    obs::json_value doc = good;
    doc.set("schema", "radiocast.bench.v1");
    EXPECT_FALSE(fault::validate_chaos_report(doc));
  }
  {  // invariant table torn down to a single entry
    obs::json_value doc = good;
    obs::json_value one = obs::json_value::array();
    one.push_back(good.find("invariants")->items().front());
    doc.set("invariants", one);
    EXPECT_FALSE(fault::validate_chaos_report(doc));
  }
  {  // unknown invariant name
    std::string text = good.dump();
    const std::string needle = "\"exactly_one_transmitter\"";
    const std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size(), "\"bogus_invariant\"");
    const auto doc = obs::json_parse(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(fault::validate_chaos_report(*doc));
  }
  {  // violations exceeding checks
    std::string text = good.dump();
    const std::string needle = "\"violations\":0";
    const std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size(), "\"violations\":999999");
    const auto doc = obs::json_parse(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(fault::validate_chaos_report(*doc));
  }
  {  // not even an object
    EXPECT_FALSE(fault::validate_chaos_report(obs::json_value(3)));
  }
}

TEST(ChaosTest, InvariantNamesAreStable) {
  EXPECT_STREQ(
      fault::chaos_invariant_name(
          fault::chaos_invariant::exactly_one_transmitter),
      "exactly_one_transmitter");
  EXPECT_STREQ(fault::chaos_invariant_name(
                   fault::chaos_invariant::no_delivery_over_down_edge),
               "no_delivery_over_down_edge");
  EXPECT_STREQ(
      fault::chaos_invariant_name(fault::chaos_invariant::engine_bit_identity),
      "engine_bit_identity");
  EXPECT_STREQ(fault::chaos_invariant_name(
                   fault::chaos_invariant::zero_intensity_identity),
               "zero_intensity_identity");
}

}  // namespace
}  // namespace radiocast
