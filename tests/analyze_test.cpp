// Tests for the static-analysis engine (tools/analyze/): the layer
// manifest and the passes P1–P4.
//
// Each pass is exercised on inline fixture files: a seeded violation must
// fire, the live-tree idioms the passes were calibrated against
// (wall_ms-family sinks, seeded rng streams, POD SoA traits, RC_* assertion
// arguments) must NOT fire, every suppression form must suppress with a
// justification, and the radiocast.analysis.v1 JSON report must round-trip
// through the project's own JSON parser (src/obs/json.h). The token rules
// R1–R5 have their own fixtures in lint_test.cpp.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze_fixture.h"
#include "obs/json.h"

namespace radiocast {
namespace {

using namespace analyze_fixture;
using analyze::parse_manifest;

// ---------- the layer manifest ----------

TEST(AnalyzeTest, ManifestParsesLayersAndAssignments) {
  std::vector<std::string> errors;
  const layer_manifest m = parse_manifest(R"(
# comment
layer low
layer high
path src/low/  low
path src/high/ high
)",
                                          &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(m.rank("low"), 0);
  EXPECT_EQ(m.rank("high"), 1);
  EXPECT_EQ(m.rank("absent"), -1);
  EXPECT_EQ(m.layer_for("src/low/a.h"), "low");
  EXPECT_EQ(m.layer_for("elsewhere/a.h"), "");
}

TEST(AnalyzeTest, ManifestLongestPrefixWins) {
  std::vector<std::string> errors;
  const layer_manifest m = parse_manifest(R"(
layer base
layer carved
path src/exec/             base
path src/exec/thread_pool. carved
)",
                                          &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(m.layer_for("src/exec/thread_pool.h"), "carved");
  EXPECT_EQ(m.layer_for("src/exec/other.h"), "base");
}

TEST(AnalyzeTest, ManifestRejectsMalformedAndUndeclared) {
  std::vector<std::string> errors;
  parse_manifest(R"(
layer a
path src/x/ nowhere
bogus line here
)",
                 &errors);
  EXPECT_EQ(errors.size(), 2u);
}

TEST(AnalyzeTest, BuiltInManifestCoversTheTree) {
  std::vector<std::string> errors;
  const layer_manifest m = parse_manifest(manifest_text(), &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_FALSE(m.order.empty()) << "cannot read " RADIOCAST_LAYER_MANIFEST;
  EXPECT_LT(m.rank("util"), m.rank("sim"));
  EXPECT_LT(m.rank("sim"), m.rank("core"));
  EXPECT_LT(m.rank("core"), m.rank("harness"));
  EXPECT_EQ(m.layer_for("src/exec/thread_pool.h"), "exec-base");
  EXPECT_EQ(m.layer_for("src/exec/parallel_trials.h"), "exec");
  EXPECT_EQ(m.layer_for("src/fault/chaos.cpp"), "chaos");
  EXPECT_EQ(m.layer_for("src/radiocast.h"), "api");
}

// ---------- P1: layering ----------

TEST(AnalyzeTest, LayeringFiresOnUpwardInclude) {
  const report rep = run({
      {"src/util/low.h", "#pragma once\n#include \"sim/high.h\"\n"},
      {"src/sim/high.h", "#pragma once\n"},
  });
  EXPECT_EQ(fired(rep, "layering"), 1);
}

TEST(AnalyzeTest, LayeringAllowsDownwardAndSameLayerIncludes) {
  const report rep = run({
      {"src/sim/high.h", "#pragma once\n#include \"util/low.h\"\n"},
      {"src/sim/peer.h", "#pragma once\n#include \"sim/high.h\"\n"},
      {"src/util/low.h", "#pragma once\n"},
  });
  EXPECT_EQ(fired(rep, "layering"), 0);
  EXPECT_EQ(rep.edges.size(), 2u);
}

TEST(AnalyzeTest, LayeringFiresOnIncludeCycle) {
  // Same layer, so no upward edge — the cycle check must catch it alone.
  const report rep = run({
      {"src/sim/a.h", "#pragma once\n#include \"sim/b.h\"\n"},
      {"src/sim/b.h", "#pragma once\n#include \"sim/a.h\"\n"},
  });
  EXPECT_EQ(fired(rep, "layering"), 1);
}

TEST(AnalyzeTest, LayeringResolvesIncluderRelativeFirst) {
  // "detail.h" from src/sim/ must bind to src/sim/detail.h, not leak to
  // an external; the edge proves resolution happened.
  const report rep = run({
      {"src/sim/engine.h", "#pragma once\n#include \"detail.h\"\n"},
      {"src/sim/detail.h", "#pragma once\n"},
  });
  EXPECT_EQ(rep.edges.size(), 1u);
  EXPECT_EQ(rep.edges[0].to, "src/sim/detail.h");
}

TEST(AnalyzeTest, LayeringIgnoresExternalAndAngleIncludes) {
  const report rep = run_one("src/util/low.h",
                             "#pragma once\n#include <vector>\n"
                             "#include \"nonexistent/header.h\"\n");
  EXPECT_EQ(fired(rep, "layering"), 0);
  EXPECT_TRUE(rep.edges.empty());
}

TEST(AnalyzeTest, LayeringFiresOnUnassignedFile) {
  const report rep = run_one("mystery/file.h", "#pragma once\n");
  EXPECT_EQ(fired(rep, "layering"), 1);
}

// ---------- P2: taint ----------

TEST(AnalyzeTest, TaintFiresOnBranchingOnWallClock) {
  const report rep = run_one("src/sim/foo.cpp", R"cpp(
void f() {
  const auto t0 = std::chrono::steady_clock::now();
  const double ms = (std::chrono::steady_clock::now() - t0).count();
  if (ms > 5.0) { return; }
}
)cpp");
  EXPECT_EQ(fired(rep, "taint"), 1);
}

TEST(AnalyzeTest, TaintTracksFlowThroughLocals) {
  // Two hops: clock -> a -> b -> branch. Call bans can't see this.
  const report rep = run_one("src/sim/foo.cpp", R"cpp(
void f() {
  const auto a = std::chrono::steady_clock::now().time_since_epoch().count();
  const auto b = a / 2;
  while (b > 100) { break; }
}
)cpp");
  EXPECT_EQ(fired(rep, "taint"), 1);
}

TEST(AnalyzeTest, TaintFiresOnNonWallFamilyMemberSink) {
  const report rep = run_one("src/sim/foo.cpp", R"cpp(
void f(result* r) {
  const auto ticks = std::chrono::steady_clock::now().time_since_epoch().count();
  r->steps = ticks;
}
)cpp");
  EXPECT_EQ(fired(rep, "taint"), 1);
}

TEST(AnalyzeTest, TaintAllowsWallFamilySinks) {
  const report rep = run_one("bench/bench_foo.cpp", R"cpp(
void f(case_report* rep, result* r) {
  const auto start = std::chrono::steady_clock::now();
  const double batch_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();
  r->wall_ms = batch_ms;
  rep->annotate("batch_wall_ms", batch_ms);
  rep->annotate("speedup", batch_ms > 0.0 ? 2.0 / batch_ms : 1.0);
}
)cpp");
  EXPECT_EQ(fired(rep, "taint"), 0);
}

TEST(AnalyzeTest, TaintFiresOnNonWallFamilyTelemetryKey) {
  const report rep = run_one("bench/bench_foo.cpp", R"cpp(
void f(case_report* rep) {
  const auto jitter = std::chrono::steady_clock::now().time_since_epoch().count();
  rep->annotate("collisions", jitter);
}
)cpp");
  EXPECT_EQ(fired(rep, "taint"), 1);
}

TEST(AnalyzeTest, TaintExpiresWithScope) {
  // The tainted name dies with its block; the same name outside is clean.
  const report rep = run_one("src/sim/foo.cpp", R"cpp(
void f() {
  {
    const auto ms = std::chrono::steady_clock::now().time_since_epoch().count();
  }
  const int ms = 3;
  if (ms > 1) { return; }
}
)cpp");
  EXPECT_EQ(fired(rep, "taint"), 0);
}

TEST(AnalyzeTest, TaintFiresOnUnseededRng) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", "void f() { rng g; }\n"),
                  "taint"),
            1);
  EXPECT_EQ(fired(run_one("src/core/foo.cpp",
                          "void f() { double x = 1.0; rng g(x); }\n"),
                  "taint"),
            1);
}

TEST(AnalyzeTest, TaintAllowsSeededRngStreams) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
void f(const run_options& opts, const view& v) {
  rng root(opts.seed);
  rng salted(mix_seed(v.seed, kSalt));
  rng fixed(2718);
  rng child = root.split(3);
  const rng copy = gens_[0];
}
)cpp");
  EXPECT_EQ(fired(rep, "taint"), 0);
}

TEST(AnalyzeTest, TaintFiresOnWallClockSeededRng) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
void f() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch().count();
  rng g(t);
}
)cpp");
  EXPECT_EQ(fired(rep, "taint"), 1);
}

TEST(AnalyzeTest, TaintExemptsMemberRngAndTheRngImplItself) {
  // A trailing-underscore member is seeded by its owner later; the rng
  // implementation itself is the one sanctioned site.
  EXPECT_EQ(
      fired(run_one("src/sim/foo.h", "class c { rng gen_; };\n"), "taint"),
      0);
  EXPECT_EQ(fired(run_one("src/util/rng.h", "rng whatever;\n"), "taint"),
            0);
}

// ---------- P3: contract ----------

const char* kGoodTraits = R"cpp(
struct good_soa_traits {
  struct state {
    node_id label = -1;
    bool informed = false;
  };
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
  void begin_step(std::int64_t step);
};
soa_entry good_protocol::soa_runner() const { return &good_soa_entry; }
)cpp";

TEST(AnalyzeTest, ContractAcceptsAConformingTraits) {
  EXPECT_EQ(fired(run_one("src/core/good.cpp", kGoodTraits), "contract"),
            0);
}

TEST(AnalyzeTest, ContractFiresOnMissingRestartHook) {
  const report rep = run_one("src/core/bad.cpp", R"cpp(
struct bad_soa_traits {
  struct state { bool informed = false; };
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
};
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 1);
}

TEST(AnalyzeTest, ContractFiresOnOwningStateMembers) {
  const report rep = run_one("src/core/bad.cpp", R"cpp(
struct bad_soa_traits {
  struct state {
    std::shared_ptr<const schedule> sched;
    std::vector<int> history;
  };
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
};
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 2);
}

TEST(AnalyzeTest, ContractAllowsOwningMembersOnTheTraitsObject) {
  // kp_randomized's shape: the shared schedule lives on the traits object,
  // outside `struct state` — legal and encouraged.
  const report rep = run_one("src/core/kp_like.cpp", R"cpp(
struct kp_like_soa_traits {
  struct state { node_id label = -1; bool informed = false; };
  std::shared_ptr<const schedule> sched;
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
};
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 0);
}

TEST(AnalyzeTest, ContractFiresOnMissingStateStruct) {
  const report rep = run_one("src/core/bad.cpp", R"cpp(
struct bad_soa_traits {
  void init() const;
  void on_step() const;
  void on_receive() const;
  bool informed() const;
  bool halted() const;
  void on_restart() const;
};
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 1);
}

TEST(AnalyzeTest, ContractFiresOnLossyBeginStepSignature) {
  // `begin_step(int)` is still callable from the engine's
  // begin_step(std::int64_t{}) detection — but silently truncates past
  // 2^31 steps. The exact declared type is the contract.
  const report rep = run_one("src/core/bad.cpp", R"cpp(
struct bad_soa_traits {
  struct state { bool informed = false; };
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
  void begin_step(int step);
};
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 1);
}

// Traits skeleton for the next_poll fixtures: the six required hooks plus
// the calendar hint spliced in as `hint`.
std::string traits_with_hint(const std::string& hint) {
  return R"cpp(
struct hinted_soa_traits {
  struct state { bool informed = false; };
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
)cpp" + hint + "\n};\n";
}

TEST(AnalyzeTest, ContractAcceptsExactNextPollSignature) {
  const report rep = run_one(
      "src/core/hinted.cpp",
      traits_with_hint("  std::int64_t next_poll(const state& s, "
                       "std::int64_t step) const {\n"
                       "    return sas_proto::sas_soa_next_poll(s, step);\n"
                       "  }"));
  EXPECT_EQ(fired(rep, "contract"), 0);
}

TEST(AnalyzeTest, ContractFiresOnLossyNextPollSignature) {
  // `int next_poll(const state&, int) const` is still callable from the
  // engine's detection — but the calendar's wake steps would truncate
  // past 2^31. Each lossy shape is one finding.
  for (const char* hint :
       {"  int next_poll(const state& s, int step) const;",
        "  std::int64_t next_poll(const state& s, int step) const;",
        "  std::int32_t next_poll(const state& s, std::int64_t step) const;",
        "  std::int64_t next_poll(const state& s, std::int64_t step);"}) {
    const report rep = run_one("src/core/lossy.cpp", traits_with_hint(hint));
    EXPECT_EQ(fired(rep, "contract"), 1) << hint;
  }
}

TEST(AnalyzeTest, ContractAcceptsNestedPodStateMembers) {
  // complete_layered's shape: the state embeds the POD echo/selection
  // forms (core/echo.h) as plain members. Nested POD structs are
  // value types, not owning containers — the checker must stay quiet.
  const report rep = run_one("src/core/cl_like.cpp", R"cpp(
struct cl_like_soa_traits {
  node_id r_bound = 1;
  struct state {
    node_id label = -1;
    node_id helper = -1;
    std::int32_t layer = -1;
    soa_pending pending;
    soa_selection sel;
    bool informed = false;
    bool halted = false;
  };
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
};
soa_entry cl_like_protocol::soa_runner() const { return &cl_like_entry; }
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 0);
}

TEST(AnalyzeTest, ContractAcceptsSharedSubProtocolState) {
  // interleaved's shape: the state embeds another protocol's POD state
  // machine wholesale, and the schedule hoist lives in a non-const
  // begin_step(std::int64_t) mutating traits-level scratch.
  const report rep = run_one("src/core/il_like.cpp", R"cpp(
struct il_like_soa_traits {
  node_id r_bound = 1;
  std::int64_t modulus = 1;
  bool even_step = false;
  std::int64_t rr_slot = 0;
  struct state {
    sas_proto::sas_soa_state sas;
    bool rr_informed = false;
  };
  void begin_step(std::int64_t step);
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
};
soa_entry il_like_protocol::soa_runner() const { return &il_like_entry; }
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 0);
}

TEST(AnalyzeTest, ContractFiresOnLossyBeginStepInSharedStateShape) {
  // The same interleaved-like shape with begin_step(int): the modulus
  // arithmetic would silently truncate past 2^31 steps. One finding —
  // the nested sub-protocol state must not mask the signature check.
  const report rep = run_one("src/core/il_bad.cpp", R"cpp(
struct il_bad_soa_traits {
  std::int64_t modulus = 1;
  struct state {
    sas_proto::sas_soa_state sas;
    bool rr_informed = false;
  };
  void begin_step(int step);
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
};
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 1);
}

// One implementation per protocol: the traits, wrapped by make_node.
const char* kTraitsOnlyProtocol = R"cpp(
struct one_soa_traits {
  struct state {
    node_id label = -1;
    bool informed = false;
  };
  void init(state* s, node_id label, const protocol_params& p) const;
  std::optional<message> on_step(state* s, const node_context& ctx) const;
  void on_receive(state* s, const node_context& ctx, const message& m) const;
  bool informed(const state& s) const;
  bool halted(const state& s) const;
  void on_restart(state* s, const node_context& ctx) const;
};
std::unique_ptr<protocol_node> one_protocol::make_node(
    node_id label, const protocol_params& params) const {
  return make_traits_node(one_soa_traits{}, label, params);
}
soa_entry one_protocol::soa_runner() const {
  return &soa_entry_for<one_traits>;
}
)cpp";

TEST(AnalyzeTest, ContractAcceptsTraitsWrappedByMakeNode) {
  EXPECT_EQ(fired(run_one("src/core/one.cpp", kTraitsOnlyProtocol),
                  "contract"),
            0);
}

TEST(AnalyzeTest, ContractFiresOnEntryWithoutTraits) {
  const report rep = run_one("src/core/bad.cpp", R"cpp(
soa_entry bad_protocol::soa_runner() const { return &some_entry_fn; }
)cpp");
  EXPECT_EQ(fired(rep, "contract"), 1);
  // The generic entry helper's shape triggers the same check.
  const report generic = run_one("src/core/bad2.cpp", R"cpp(
soa_entry bad2_protocol::soa_runner() const {
  return &soa_entry_for<bad2_traits>;
}
)cpp");
  EXPECT_EQ(fired(generic, "contract"), 1);
}

TEST(AnalyzeTest, ContractIgnoresDelegatingAndNullRunners) {
  // A runner that returns nullptr names no entry; kp's fallback path
  // delegates. Neither requires local traits.
  EXPECT_EQ(fired(run_one("src/core/a.h",
                          "virtual soa_entry soa_runner() const { return "
                          "nullptr; }\n"),
                  "contract"),
            0);
  EXPECT_EQ(
      fired(run_one("src/core/b.cpp",
                    "soa_entry b::soa_runner() const { return "
                    "other_protocol().soa_runner(); }\n"),
            "contract"),
      0);
}

// ---------- P4: hot-path ----------

TEST(AnalyzeTest, HotPathFiresOnBannedConstructsInsideRegion) {
  const report rep = run_one("src/sim/foo.h", R"cpp(
// radiocast-analyze: hot-path-begin
void step() {
  auto* p = new int(3);
  std::string s = std::to_string(7);
  throw std::runtime_error(s);
}
// radiocast-analyze: hot-path-end
)cpp");
  EXPECT_EQ(fired(rep, "hot-path"), 4);  // new, string, to_string, throw
}

TEST(AnalyzeTest, HotPathFiresOnStringKeyedMetricLookups) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
// radiocast-analyze: hot-path-begin
std::optional<message> on_step(state* s, const node_context& ctx) const {
  if (ctx.metrics != nullptr) {
    ctx.metrics->get_counter("foo.tx", "universal").add();
    ctx.metrics->get_gauge("foo.stage").set(s->stage);
    ctx.metrics->get_histogram("foo.cutoff").observe(s->cutoff);
    ctx.metrics->get_series("foo.frontier").push(1);
  }
  return std::nullopt;
}
// radiocast-analyze: hot-path-end
)cpp");
  EXPECT_EQ(fired(rep, "hot-path"), 4);
  for (const finding& f : rep.findings) {
    if (f.pass != "hot-path") continue;
    EXPECT_NE(f.message.find("metric_key"), std::string::npos) << f.message;
  }
}

TEST(AnalyzeTest, HotPathAcceptsMetricKeyHandles) {
  // Keys declared outside the region, reached through the handle accessors
  // inside it; setup-time get_* outside the region stays legal.
  const report rep = run_one("src/core/foo.cpp", R"cpp(
const obs::metric_key kTx("foo.tx", "universal");
const obs::metric_key kStage("foo.stage");
const obs::metric_key kCutoff("foo.cutoff");
void setup(obs::metrics_registry* m) { frontier_ = &m->get_series("f"); }
// radiocast-analyze: hot-path-begin
std::optional<message> on_step(state* s, const node_context& ctx) const {
  if (ctx.metrics != nullptr) {
    ctx.metrics->counter_at(kTx).add();
    ctx.metrics->gauge_at(kStage).set(s->stage);
    ctx.metrics->histogram_at(kCutoff).observe(s->cutoff);
  }
  return std::nullopt;
}
// radiocast-analyze: hot-path-end
)cpp");
  EXPECT_EQ(fired(rep, "hot-path"), 0);
}

TEST(AnalyzeTest, HotPathIgnoresCodeOutsideRegions) {
  const report rep = run_one("src/sim/foo.h", R"cpp(
void setup() { auto* p = new int(3); }
// radiocast-analyze: hot-path-begin
void step() { int x = 1; }
// radiocast-analyze: hot-path-end
void teardown() { std::string s; }
)cpp");
  EXPECT_EQ(fired(rep, "hot-path"), 0);
}

TEST(AnalyzeTest, HotPathExemptsAssertionArguments) {
  // RC_* failure paths are cold by definition; their message building
  // (std::to_string, string concatenation, even across lines) is exempt.
  const report rep = run_one("src/sim/foo.h", R"cpp(
// radiocast-analyze: hot-path-begin
void step(std::int64_t got, std::int64_t want) {
  RC_CHECK_MSG(got == want,
               "mismatch: got " + std::to_string(got) + " want " +
                   std::to_string(want));
  RC_REQUIRE(got >= 0);
}
// radiocast-analyze: hot-path-end
)cpp");
  EXPECT_EQ(fired(rep, "hot-path"), 0);
}

TEST(AnalyzeTest, HotPathFiresOnUnbalancedMarkers) {
  EXPECT_EQ(fired(run_one("src/sim/foo.h",
                          "// radiocast-analyze: hot-path-begin\n"
                          "void step() {}\n"),
                  "hot-path"),
            1);
  EXPECT_EQ(fired(run_one("src/sim/foo.h",
                          "void step() {}\n"
                          "// radiocast-analyze: hot-path-end\n"),
                  "hot-path"),
            1);
}

// ---------- suppressions + annotation hygiene ----------

TEST(AnalyzeTest, AllowSuppressesWithJustification) {
  const report rep = run_one("src/sim/foo.h", R"cpp(
// radiocast-analyze: hot-path-begin
void warmup() {
  // radiocast-analyze: allow(hot-path) -- one-time lazy construction.
  pool_ = std::make_unique<pool>(3);
}
// radiocast-analyze: hot-path-end
)cpp");
  EXPECT_EQ(fired(rep, "hot-path"), 0);
  EXPECT_EQ(suppressed(rep, "hot-path"), 1);
  for (const finding& f : rep.findings) {
    if (f.suppressed) {
      EXPECT_EQ(f.justification, "one-time lazy construction.");
    }
  }
}

TEST(AnalyzeTest, BareAllowAndUnknownPassAreFindings) {
  const report rep = run_one("src/sim/foo.h", R"cpp(
// radiocast-analyze: allow(hot-path)
int a;
// radiocast-analyze: allow(made-up-pass) -- why not
int b;
)cpp");
  EXPECT_EQ(fired(rep, "analyze-annotation"), 2);
}

TEST(AnalyzeTest, StaleAllowIsAFinding) {
  const report rep = run_one("src/sim/foo.h", R"cpp(
// radiocast-analyze: allow(taint) -- nothing here is tainted.
int clean = 3;
)cpp");
  EXPECT_EQ(fired(rep, "analyze-annotation"), 1);
}

TEST(AnalyzeTest, RegionMarkersAreNotAnnotationFindings) {
  const report rep = run_one("src/sim/foo.h", R"cpp(
// radiocast-analyze: hot-path-begin -- prose after the directive is fine
void step() { int x = 1; }
// radiocast-analyze: hot-path-end
)cpp");
  EXPECT_EQ(fired(rep, "analyze-annotation"), 0);
}

// ---------- the report ----------

TEST(AnalyzeTest, ReportRoundTripsThroughTheProjectJsonParser) {
  const report rep = run({
      {"src/util/low.h", "#pragma once\n#include \"sim/high.h\"\n"},
      {"src/sim/high.h", "#pragma once\n#include \"util/low.h\"\n"},
  });
  std::ostringstream out;
  analyze::report_to_json(rep).write(out, 2);

  std::string err;
  std::optional<obs::json_value> doc = obs::json_parse(out.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("schema")->as_string(), analyze::kSchema);
  EXPECT_EQ(doc->find("files_scanned")->as_int(), 2);
  EXPECT_EQ(doc->find("passes")->items().size(), 9u);
  // The DAG is emitted: 2 nodes with layers, 2 edges.
  const obs::json_value* graph = doc->find("include_graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->find("nodes")->items().size(), 2u);
  EXPECT_EQ(graph->find("edges")->items().size(), 2u);
  const obs::json_value& summary = *doc->find("summary");
  EXPECT_EQ(summary.find("findings")->as_int(),
            static_cast<std::int64_t>(rep.unsuppressed_count()));
  EXPECT_FALSE(summary.find("clean")->as_bool());
  // Every check is listed, clean ones with a zero.
  const obs::json_value& by_pass = *summary.find("by_pass");
  EXPECT_EQ(by_pass.size(), 9u);
  EXPECT_EQ(by_pass.find("layering")->as_int(), fired(rep, "layering"));
  EXPECT_EQ(by_pass.find("wall-clock")->as_int(), 0);
}

TEST(AnalyzeTest, CleanReportIsClean) {
  const report rep = run_one("src/util/low.h", "#pragma once\nint x;\n");
  std::ostringstream out;
  analyze::report_to_json(rep).write(out, 2);
  std::optional<obs::json_value> doc = obs::json_parse(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find_path("summary.clean")->as_bool());
}

}  // namespace
}  // namespace radiocast
