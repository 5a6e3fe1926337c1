// Tests for the token rules R1–R5 of the static-analysis engine
// (tools/analyze/): no-raw-random, wall-clock, unordered-iter, check-msg and
// iostream.
//
// Each rule is exercised on inline fixture snippets driven through
// analyze_files: a seeded violation must fire, the path-based scoping must
// exempt the designated directories, every suppression form must suppress
// (and be justified), and the lexer must hide comments, strings and raw
// strings. The passes P1–P4 are covered by analyze_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze_fixture.h"

namespace radiocast {
namespace {

using namespace analyze_fixture;

// ---------- R1: no-raw-random ----------

TEST(LintTest, R1FiresOnRawRandomness) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    int x = rand();
  )cpp"),
                  "no-raw-random"),
            1);
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    std::mt19937 gen(42);
  )cpp"),
                  "no-raw-random"),
            1);
  EXPECT_EQ(fired(run_one("tests/foo_test.cpp", R"cpp(
    std::random_device rd;
  )cpp"),
                  "no-raw-random"),
            1);
  EXPECT_EQ(fired(run_one("bench/bench_foo.cpp", R"cpp(
    srand(7);
  )cpp"),
                  "no-raw-random"),
            1);
}

TEST(LintTest, R1ExemptsTheRngImplementation) {
  const char* snippet = R"cpp(
    std::mt19937 reference(42);  // cross-checked against xoshiro
  )cpp";
  EXPECT_EQ(fired(run_one("src/util/rng.cpp", snippet), "no-raw-random"),
            0);
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", snippet), "no-raw-random"),
            1);
}

TEST(LintTest, R1IgnoresCommentsAndStrings) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    // std::mt19937 would be wrong here
    const char* msg = "never call rand() directly";
  )cpp"),
                  "no-raw-random"),
            0);
}

TEST(LintTest, R1IgnoresLongerIdentifiers) {
  // `rand` must match as a whole token, not as a substring.
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    int randomized_rounds = operand + rand_like;
  )cpp"),
                  "no-raw-random"),
            0);
}

// ---------- R2: wall-clock ----------

TEST(LintTest, R2FiresOnWallClockOutsideTimingSites) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    auto t = std::chrono::steady_clock::now();
  )cpp"),
                  "wall-clock"),
            1);
  EXPECT_EQ(fired(run_one("src/sim/foo.cpp", R"cpp(
    auto seed = time(nullptr);
  )cpp"),
                  "wall-clock"),
            1);
  EXPECT_EQ(fired(run_one("tools/foo.cpp", R"cpp(
    auto t = std::chrono::system_clock::now();
  )cpp"),
                  "wall-clock"),
            1);
}

TEST(LintTest, R2ExemptsDesignatedTimingSites) {
  const char* snippet = R"cpp(
    auto t = std::chrono::steady_clock::now();
  )cpp";
  EXPECT_EQ(fired(run_one("bench/bench_common.h", snippet), "wall-clock"),
            0);
  EXPECT_EQ(fired(run_one("src/exec/parallel_trials.cpp", snippet),
                  "wall-clock"),
            0);
}

TEST(LintTest, R2CoversCampaignCodeExceptAnnotatedAllows) {
  // src/campaign/ is IN scope for R2: its results must be host-independent.
  // The one sanctioned read — the checkpoint freshness timestamp — goes
  // through an annotated allow, exactly as checkpoint.cpp does it.
  EXPECT_EQ(fired(run_one("src/campaign/campaign.cpp", R"cpp(
    auto t = std::chrono::system_clock::now();
  )cpp"),
                  "wall-clock"),
            1);
  EXPECT_EQ(fired(run_one("src/campaign/checkpoint.cpp", R"cpp(
    const auto since_epoch =
        // radiocast-analyze: allow(wall-clock) -- checkpoint freshness
        // timestamp: display-only metadata, never reaches results
        std::chrono::system_clock::now().time_since_epoch();
  )cpp"),
                  "wall-clock"),
            0);
}

TEST(LintTest, R2MatchesTimeOnlyAsACall) {
  // `time(` is banned; `time_point`, `wall_time(...)` and members named
  // time are not wall-clock reads.
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    std::chrono::steady_clock::time_point tp;
  )cpp"),
                  "wall-clock"),
            1);  // steady_clock itself still fires, time_point does not
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    double w = wall_time(run);
    duration time_budget = limit;
  )cpp"),
                  "wall-clock"),
            0);
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    auto now = time (nullptr);
  )cpp"),
                  "wall-clock"),
            1);
}

// ---------- R3: unordered-iter ----------

TEST(LintTest, R3FiresOnUnorderedContainersInSrc) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    std::unordered_map<int, int> cache;
  )cpp"),
                  "unordered-iter"),
            1);
  EXPECT_EQ(fired(run_one("src/fault/foo.cpp", R"cpp(
    std::unordered_set<node_id> seen;
  )cpp"),
                  "unordered-iter"),
            1);
}

TEST(LintTest, R3CoversLibraryTestsAndTools) {
  // A test asserting on hash order passes on exactly one libstdc++ build,
  // and a tool can leak hash order into a report diff — so tests/ and
  // tools/ are in scope alongside src/. bench/ stays out (presentation
  // tables only).
  const char* snippet = R"cpp(
    std::unordered_set<int> seen;
  )cpp";
  EXPECT_EQ(fired(run_one("tests/foo_test.cpp", snippet),
                  "unordered-iter"),
            1);
  EXPECT_EQ(fired(run_one("tools/foo.cpp", snippet), "unordered-iter"), 1);
  EXPECT_EQ(fired(run_one("bench/foo.cpp", snippet), "unordered-iter"), 0);
}

TEST(LintTest, R1CoversToolsAndExamples) {
  const char* snippet = R"cpp(
    std::mt19937 gen(12345);
  )cpp";
  EXPECT_EQ(fired(run_one("tools/foo.cpp", snippet), "no-raw-random"), 1);
  EXPECT_EQ(fired(run_one("examples/foo.cpp", snippet), "no-raw-random"),
            1);
}

TEST(LintTest, R3IgnoresTheIncludeItself) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
#include <unordered_set>
  )cpp"),
                  "unordered-iter"),
            0);
}

// ---------- R4: check-msg ----------

TEST(LintTest, R4FiresOnBareCheckInAdversaryAndExec) {
  const char* snippet = R"cpp(
    RC_CHECK(block.size() >= 2);
  )cpp";
  EXPECT_EQ(fired(run_one("src/adversary/foo.cpp", snippet), "check-msg"),
            1);
  EXPECT_EQ(fired(run_one("src/exec/foo.cpp", snippet), "check-msg"), 1);
  // Other subsystems may use the short form.
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", snippet), "check-msg"), 0);
}

TEST(LintTest, R4AcceptsCheckWithMessage) {
  EXPECT_EQ(fired(run_one("src/adversary/foo.cpp", R"cpp(
    RC_CHECK_MSG(block.size() >= 2, "block invariant broken");
    RC_CHECK (ok);
  )cpp"),
                  "check-msg"),
            1);  // only the bare (space-separated) RC_CHECK fires
}

// ---------- R5: iostream ----------

TEST(LintTest, R5FiresOnIostreamInSrc) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
#include <iostream>
  )cpp"),
                  "iostream"),
            1);
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
  #  include   <iostream>
  )cpp"),
                  "iostream"),
            1);
}

TEST(LintTest, R5ScopedToLibraryCode) {
  const char* snippet = R"cpp(
#include <iostream>
  )cpp";
  EXPECT_EQ(fired(run_one("tools/foo.cpp", snippet), "iostream"), 0);
  EXPECT_EQ(fired(run_one("examples/foo.cpp", snippet), "iostream"), 0);
  // Near-miss headers stay legal.
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
#include <iosfwd>
  )cpp"),
                  "iostream"),
            0);
}

// ---------- token-rule suppressions ----------

TEST(LintTest, TrailingAllowSuppresses) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
    std::unordered_set<int> seen;  // radiocast-analyze: allow(unordered-iter) -- membership only
  )cpp");
  EXPECT_EQ(fired(rep, "unordered-iter"), 0);
  EXPECT_EQ(suppressed(rep, "unordered-iter"), 1);
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_EQ(rep.findings[0].justification, "membership only");
}

TEST(LintTest, PrecedingLineAllowSuppresses) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
    // radiocast-analyze: allow(unordered-iter) -- membership-only set; the
    // continuation of this justification spans comment lines
    std::unordered_set<int> seen;
  )cpp");
  EXPECT_EQ(fired(rep, "unordered-iter"), 0);
  EXPECT_EQ(suppressed(rep, "unordered-iter"), 1);
}

TEST(LintTest, AllowWithoutJustificationIsAFinding) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
    std::unordered_set<int> seen;  // radiocast-analyze: allow(unordered-iter)
  )cpp");
  // The bare allow() is rejected, so it also fails to suppress.
  EXPECT_EQ(fired(rep, "analyze-annotation"), 1);
  EXPECT_EQ(fired(rep, "unordered-iter"), 1);
}

TEST(LintTest, AllowForUnknownRuleIsAFinding) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
    // radiocast-analyze: allow(made-up-rule) -- because
    std::unordered_set<int> seen;
  )cpp");
  EXPECT_EQ(fired(rep, "analyze-annotation"), 1);
  EXPECT_EQ(fired(rep, "unordered-iter"), 1);
}

TEST(LintTest, AllowForDifferentRuleDoesNotSuppress) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
    auto t = std::chrono::steady_clock::now();  // radiocast-analyze: allow(unordered-iter) -- wrong rule
  )cpp");
  EXPECT_EQ(fired(rep, "wall-clock"), 1);
  // ...and the mismatched suppression is flagged as unused.
  EXPECT_EQ(fired(rep, "analyze-annotation"), 1);
}

TEST(LintTest, UnusedAllowIsAFinding) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
    // radiocast-analyze: allow(wall-clock) -- stale justification
    int x = 1;
  )cpp");
  EXPECT_EQ(fired(rep, "analyze-annotation"), 1);
}

TEST(LintTest, ProseMentioningTheMarkerIsNotAnAnnotation) {
  const report rep = run_one("src/core/foo.cpp", R"cpp(
    // See the radiocast-analyze docs for the allow() syntax.
    int x = 1;
  )cpp");
  EXPECT_TRUE(rep.findings.empty());
}

// ---------- lexer corner cases ----------

TEST(LintTest, RawStringContentsAreInvisible) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp",
                          "const char* f = R\"fix(\n"
                          "  std::mt19937 gen; rand();\n"
                          ")fix\";\n"),
                  "no-raw-random"),
            0);
}

TEST(LintTest, BlockCommentsSpanningLinesAreStripped) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    /* a block comment mentioning
       std::mt19937 and rand() across lines */
    int x = 1;
  )cpp"),
                  "no-raw-random"),
            0);
}

TEST(LintTest, DigitSeparatorsDoNotConfuseTheLexer) {
  EXPECT_EQ(fired(run_one("src/core/foo.cpp", R"cpp(
    const std::int64_t big = 1'000'000;
    std::mt19937 gen;
  )cpp"),
                  "no-raw-random"),
            1);  // the separator line parses; the violation still fires
}

TEST(LintTest, FindingCarriesLineAndSnippet) {
  const report rep = run_one("src/core/foo.cpp",
                             "int a;\nint b = rand();\nint c;\n");
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].pass, "no-raw-random");
  EXPECT_EQ(rep.findings[0].line, 2);
  EXPECT_EQ(rep.findings[0].snippet, "int b = rand();");
  EXPECT_EQ(rep.findings[0].path, "src/core/foo.cpp");
}

// ---------- the check table ----------

TEST(LintTest, PassTableListsAllNineChecks) {
  std::vector<std::string> ids;
  for (const analyze::pass_info& p : analyze::passes()) ids.push_back(p.id);
  const std::vector<std::string> expected = {
      "no-raw-random", "wall-clock", "unordered-iter", "check-msg",
      "iostream",      "layering",   "taint",          "contract",
      "hot-path"};
  EXPECT_EQ(ids, expected);
  for (const std::string& id : expected) {
    EXPECT_TRUE(analyze::is_known_pass(id)) << id;
  }
  EXPECT_FALSE(analyze::is_known_pass("made-up"));
  EXPECT_FALSE(analyze::is_known_pass("analyze-annotation"));
}

}  // namespace
}  // namespace radiocast
