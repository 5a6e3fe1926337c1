// Unit tests for the utility substrate: RNG, integer math, statistics,
// least-squares fitting, table rendering, CLI parsing, packed bit masks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "util/assert.h"
#include "util/bitset.h"
#include "util/cli.h"
#include "util/fit.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace radiocast {
namespace {

// ---------- assertions ----------

TEST(AssertTest, CheckThrowsInvariantError) {
  EXPECT_THROW(RC_CHECK(1 == 2), invariant_error);
  EXPECT_NO_THROW(RC_CHECK(1 == 1));
}

TEST(AssertTest, RequireThrowsPreconditionError) {
  EXPECT_THROW(RC_REQUIRE(false), precondition_error);
  EXPECT_THROW(RC_REQUIRE_MSG(false, "context"), precondition_error);
}

TEST(AssertTest, MessageContainsContext) {
  try {
    RC_REQUIRE_MSG(false, "the widget is missing");
    FAIL() << "should have thrown";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("widget"), std::string::npos);
  }
}

TEST(AssertTest, CheckEvaluatesExpressionExactlyOnce) {
  // The macros must expand their argument a single time — an expression
  // with side effects (e.g. an rng draw inside a check) would otherwise
  // perturb downstream state and break replay determinism.
  int evals = 0;
  RC_CHECK(++evals == 1);
  EXPECT_EQ(evals, 1);

  evals = 0;
  RC_CHECK_MSG(++evals == 1, "once");
  EXPECT_EQ(evals, 1);

  evals = 0;
  RC_REQUIRE(++evals == 1);
  EXPECT_EQ(evals, 1);

  evals = 0;
  RC_REQUIRE_MSG(++evals == 1, "once");
  EXPECT_EQ(evals, 1);
}

TEST(AssertTest, CheckEvaluatesExpressionOnceOnFailureToo) {
  int evals = 0;
  EXPECT_THROW(RC_CHECK(++evals == 0), invariant_error);
  EXPECT_EQ(evals, 1);

  evals = 0;
  EXPECT_THROW(RC_REQUIRE_MSG(++evals == 0, "boom"), precondition_error);
  EXPECT_EQ(evals, 1);
}

TEST(AssertTest, MessageBuiltOnlyOnFailure) {
  // The message argument is lazily evaluated: building it may allocate or
  // format, which the hot path must never pay for a passing check.
  int msg_evals = 0;
  auto message = [&msg_evals] {
    ++msg_evals;
    return std::string("expensive context");
  };
  RC_CHECK_MSG(true, message());
  EXPECT_EQ(msg_evals, 0);
  EXPECT_THROW(RC_CHECK_MSG(false, message()), invariant_error);
  EXPECT_EQ(msg_evals, 1);
}

// ---------- math ----------

TEST(MathTest, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(6));
}

TEST(MathTest, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(4), 2);
  EXPECT_EQ(ilog2_floor(1023), 9);
  EXPECT_EQ(ilog2_floor(1024), 10);
}

TEST(MathTest, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(2), 1);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(4), 2);
  EXPECT_EQ(ilog2_ceil(5), 3);
  EXPECT_EQ(ilog2_ceil(1025), 11);
}

TEST(MathTest, FloorCeilAgreeOnPowersOfTwo) {
  for (int e = 0; e < 30; ++e) {
    const std::uint64_t x = 1ULL << e;
    EXPECT_EQ(ilog2_floor(x), e);
    EXPECT_EQ(ilog2_ceil(x), e);
  }
}

TEST(MathTest, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(MathTest, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(3, 0), 1u);
  EXPECT_EQ(ipow(5, 3), 125u);
}

TEST(MathTest, PreconditionsRejected) {
  EXPECT_THROW(ilog2_floor(0), precondition_error);
  EXPECT_THROW(ilog2_ceil(0), precondition_error);
  EXPECT_THROW(ceil_div(1, 0), precondition_error);
}

// ---------- rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  rng a(42);
  rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  rng a(1);
  rng b(2);
  int agreements = 0;
  for (int i = 0; i < 64; ++i) agreements += (a.next() == b.next());
  EXPECT_LT(agreements, 4);
}

TEST(RngTest, SplitIsDeterministicAndIndependent) {
  rng parent1(7);
  rng parent2(7);
  rng c1 = parent1.split();
  rng c2 = parent2.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c1.next(), c2.next());
  // child and parent produce different streams
  rng p(7);
  rng c = p.split();
  int agreements = 0;
  for (int i = 0; i < 64; ++i) agreements += (p.next() == c.next());
  EXPECT_LT(agreements, 4);
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform) {
  rng gen(123);
  std::vector<int> buckets(10, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t v = gen.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[static_cast<std::size_t>(v)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, samples / 10, samples / 100);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  rng gen(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = gen.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, Uniform01Bounds) {
  rng gen(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  rng gen(11);
  const int samples = 200000;
  int hits = 0;
  for (int i = 0; i < samples; ++i) hits += gen.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / samples, 0.25, 0.01);
  EXPECT_FALSE(gen.bernoulli(0.0));
  EXPECT_TRUE(gen.bernoulli(1.0));
}

TEST(RngTest, BelowRejectsZeroBound) {
  rng gen(1);
  EXPECT_THROW(gen.below(0), precondition_error);
}

// ---------- stats ----------

TEST(StatsTest, SummarizeBasics) {
  const summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(StatsTest, SummarizeSingleSample) {
  const summary s = summarize({7});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.p95, 7.0);
}

TEST(StatsTest, SummarizeRejectsEmpty) {
  EXPECT_THROW(summarize({}), precondition_error);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> sorted{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(sorted, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 50), 25.0);
}

TEST(StatsTest, AccumulatorMatchesBatch) {
  accumulator acc;
  const std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6};
  for (double x : xs) acc.add(x);
  const summary s = summarize(xs);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), s.mean, 1e-12);
  EXPECT_NEAR(acc.stddev(), s.stddev, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(StatsTest, AccumulatorVarianceOfFewSamples) {
  accumulator acc;
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  acc.add(5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

// ---------- fit ----------

TEST(FitTest, PerfectSingleCoefficientFit) {
  std::vector<double> xs, ys;
  for (int n = 4; n <= 1024; n *= 2) {
    xs.push_back(n);
    ys.push_back(2.5 * n * std::log2(n));
  }
  const fit_result f =
      fit_scaled(xs, ys, [](double x) { return x * std::log2(x); });
  ASSERT_EQ(f.coefficients.size(), 1u);
  EXPECT_NEAR(f.coefficients[0], 2.5, 1e-9);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
  EXPECT_LT(f.max_relative_error, 1e-9);
}

TEST(FitTest, TwoBasisFit) {
  std::vector<double> xs, ys;
  for (double x = 1; x <= 64; x += 1) {
    xs.push_back(x);
    ys.push_back(3.0 * x + 7.0);
  }
  const fit_result f = fit_linear(
      xs, ys, {[](double x) { return x; }, [](double) { return 1.0; }});
  ASSERT_EQ(f.coefficients.size(), 2u);
  EXPECT_NEAR(f.coefficients[0], 3.0, 1e-9);
  EXPECT_NEAR(f.coefficients[1], 7.0, 1e-9);
}

TEST(FitTest, NoisyFitStillHighR2) {
  rng gen(31);
  std::vector<double> xs, ys;
  for (int n = 16; n <= 4096; n *= 2) {
    xs.push_back(n);
    ys.push_back(1.5 * n * (1.0 + 0.05 * (gen.uniform01() - 0.5)));
  }
  const fit_result f = fit_scaled(xs, ys, [](double x) { return x; });
  EXPECT_GT(f.r_squared, 0.99);
  EXPECT_NEAR(f.coefficients[0], 1.5, 0.1);
}

TEST(FitTest, FeaturesEntryPoint) {
  // y = 2·a + 3·b over feature rows (a, b).
  std::vector<std::vector<double>> features{{1, 0}, {0, 1}, {1, 1}, {2, 3}};
  std::vector<double> ys{2, 3, 5, 13};
  const fit_result f = fit_features(features, ys);
  EXPECT_NEAR(f.coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(f.coefficients[1], 3.0, 1e-9);
}

TEST(FitTest, RejectsMismatchedInputs) {
  EXPECT_THROW(fit_scaled({1, 2}, {1}, [](double x) { return x; }),
               precondition_error);
  EXPECT_THROW(fit_features({}, {}), precondition_error);
}

TEST(FitTest, TinyMagnitudeWellConditionedFitSucceeds) {
  // Regression for the pivot tolerance: with an absolute 1e-12 cutoff a
  // perfectly well-conditioned system whose features are ~1e-14 (normal
  // equation entries ~1e-27) was rejected as "singular". The tolerance is
  // now relative to the matrix magnitude.
  std::vector<double> xs, ys;
  for (double x = 1; x <= 8; x += 1) {
    xs.push_back(x);
    ys.push_back(3.0 * (1e-14 * x) + 2.0 * 1e-14);
  }
  const fit_result f = fit_linear(
      xs, ys,
      {[](double x) { return 1e-14 * x; }, [](double) { return 1e-14; }});
  ASSERT_EQ(f.coefficients.size(), 2u);
  EXPECT_NEAR(f.coefficients[0], 3.0, 1e-6);
  EXPECT_NEAR(f.coefficients[1], 2.0, 1e-6);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-9);
}

TEST(FitTest, IllConditionedLargeMagnitudeFitThrows) {
  // The other direction: two nearly linearly dependent basis functions at
  // magnitude ~1e8 leave an eliminated pivot around 1e-9 — far above an
  // absolute 1e-12 cutoff (which silently returned garbage coefficients),
  // far below the magnitude-relative one (entries ~1e18 ⇒ tol ~1e6).
  std::vector<double> xs, ys;
  for (double x = 1; x <= 8; x += 1) {
    xs.push_back(x);
    ys.push_back(1e8 * x);
  }
  EXPECT_THROW(
      fit_linear(xs, ys,
                 {[](double x) { return 1e8 * x; },
                  [](double x) { return 1e8 * x + 1e-5 * x * x; }}),
      invariant_error);
}

TEST(FitTest, ExactlySingularStillThrows) {
  // Duplicate basis columns stay detected after the tolerance rework.
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{1, 2, 3, 4};
  EXPECT_THROW(fit_linear(xs, ys,
                          {[](double x) { return x; },
                           [](double x) { return x; }}),
               invariant_error);
}

// ---------- table ----------

TEST(TableTest, RendersHeaderAndRows) {
  text_table t("demo");
  t.set_header({"n", "time"});
  t.add(16, 42.5);
  t.add(32, 99.125);
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("time"), std::string::npos);
  EXPECT_NE(s.find("42.50"), std::string::npos);
}

TEST(TableTest, RejectsWrongWidthRow) {
  text_table t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), precondition_error);
}

TEST(TableTest, CsvOutput) {
  text_table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "2"});
  t.add_row({"with\"quote", "3"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(),
            "name,value\n"
            "plain,1\n"
            "\"with,comma\",2\n"
            "\"with\"\"quote\",3\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(text_table::format_double(1.0, 2), "1.00");
  EXPECT_EQ(text_table::format_double(2.5, 0), "2");  // rounds to even
}

// ---------- cli ----------

TEST(CliTest, ParsesFlagsAndPositionals) {
  // Note: "--flag value" greedily binds the next non-flag token, so a bare
  // boolean flag must come last or be written --flag=true.
  const char* argv[] = {"prog", "--n=64", "--protocol", "decay", "pos1",
                        "--verbose"};
  cli_args args(6, argv);
  EXPECT_EQ(args.get_int("n", 0), 64);
  EXPECT_EQ(args.get_string("protocol", ""), "decay");
  EXPECT_TRUE(args.get_bool("verbose", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.program_name(), "prog");
}

TEST(CliTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  cli_args args(1, argv);
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_EQ(args.get_double("p", 0.5), 0.5);
  EXPECT_FALSE(args.has("n"));
}

TEST(CliTest, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--n=abc"};
  cli_args args(2, argv);
  EXPECT_THROW(args.get_int("n", 0), precondition_error);
}

TEST(CliTest, BooleanSpellings) {
  const char* argv[] = {"prog", "--x=off", "--y=1"};
  cli_args args(3, argv);
  EXPECT_FALSE(args.get_bool("x", true));
  EXPECT_TRUE(args.get_bool("y", false));
}

// ---------- packed bit masks ----------

TEST(BitsetTest, SizeEdgesKeepTailBitsZero) {
  // 0, 63, 64 and 65 bits cover: empty, a partial word, an exact word
  // boundary, and one bit spilling into a second word. The word-level
  // contract is that tail bits past size() are ZERO even after assign(n,
  // true), so word-at-a-time consumers may OR whole words unmasked.
  for (const std::size_t n : {std::size_t{0}, std::size_t{63},
                              std::size_t{64}, std::size_t{65}}) {
    util::bitset b;
    b.assign(n, true);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(b.count(), n);
    EXPECT_EQ(b.word_count(), (n + 63) / 64);
    EXPECT_EQ(b.any(), n != 0);
    std::size_t word_pop = 0;
    for (std::size_t w = 0; w < b.word_count(); ++w) {
      word_pop += static_cast<std::size_t>(std::popcount(b.word(w)));
    }
    EXPECT_EQ(word_pop, n) << "tail bits leaked past size() at n=" << n;
  }
}

TEST(BitsetTest, WordBoundaryBitsLandInTheRightWord) {
  util::bitset b;
  b.assign(130, false);
  // Straddle both word boundaries: last bit of word 0, first of word 1,
  // last of word 1, first of word 2.
  for (const std::size_t i : {std::size_t{63}, std::size_t{64},
                              std::size_t{127}, std::size_t{128}}) {
    b.set(i);
    EXPECT_TRUE(b.test(i));
  }
  EXPECT_EQ(b.word(0), std::uint64_t{1} << 63);
  EXPECT_EQ(b.word(1), (std::uint64_t{1} << 63) | 1);
  EXPECT_EQ(b.word(2), 1u);
  EXPECT_EQ(b.count(), 4u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(127));
  EXPECT_EQ(b.word(1), std::uint64_t{1} << 63);
  EXPECT_EQ(b.count(), 3u);
}

TEST(BitsetTest, PopcountSkipScanFindsExactlyTheSetBits) {
  // The engine's sweep idiom: scan word(), peel bits with countr_zero.
  // Bits chosen to hit word edges (0, 63, 64) and an interior run.
  util::bitset b;
  b.assign(200, false);
  const std::size_t picks[] = {0, 7, 63, 64, 65, 130, 199};
  for (const std::size_t i : picks) b.set(i);
  std::vector<std::size_t> seen;
  for (std::size_t w = 0; w < b.word_count(); ++w) {
    std::uint64_t rest = b.word(w);
    while (rest != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(rest));
      rest &= rest - 1;
      seen.push_back(w * util::bitset::kWordBits + bit);
    }
  }
  EXPECT_EQ(seen, std::vector<std::size_t>(std::begin(picks),
                                           std::end(picks)));
  EXPECT_EQ(b.count(), std::size(picks));
  // The hot loops' unchecked reads see the same bits and words.
  ASSERT_EQ(b.words().size(), b.word_count());
  for (std::size_t w = 0; w < b.word_count(); ++w) {
    EXPECT_EQ(b.words()[w], b.word(w));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.test_unchecked(i), b.test(i)) << i;
  }
}

TEST(BitsetTest, AnyNoneAndReassignment) {
  util::bitset b;
  b.assign(65, false);
  EXPECT_TRUE(b.none());
  b.set(64);  // only bit: first of the second word
  EXPECT_TRUE(b.any());
  EXPECT_EQ(b.count(), 1u);
  b.reset(64);
  EXPECT_TRUE(b.none());
  // assign() must clear old contents, including when shrinking across a
  // word boundary.
  b.set(3);
  b.assign(5, false);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_TRUE(b.none());
}

TEST(BitsetTest, OutOfRangeAccessRejected) {
  util::bitset b;
  b.assign(64, false);
  EXPECT_THROW(b.test(64), precondition_error);
  EXPECT_THROW(b.set(64), precondition_error);
  EXPECT_THROW(b.reset(64), precondition_error);
  EXPECT_THROW(b.word(1), precondition_error);
  util::bitset empty;
  EXPECT_THROW(empty.test(0), precondition_error);
}

}  // namespace
}  // namespace radiocast
