// Tests of the observability layer: the metrics registry (counter / gauge /
// histogram bucket boundaries / series) and its metric_key handles, the
// JSON document model and its parser (round-trips), the span profiler, the
// trace ring buffer and its NDJSON export, and the simulator-facing
// instrumentation contract (metrics/series filled when a registry is
// attached, run_trials reporting timeouts as data).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/artifact.h"
#include "campaign/checkpoint.h"
#include "campaign/manifest.h"
#include "core/runner.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/ndjson.h"
#include "obs/span.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "sim/trace_analysis.h"
#include "util/rng.h"
#include "util/stats.h"

namespace radiocast {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::metrics_registry reg;
  reg.get_counter("tx").add();
  reg.get_counter("tx").add(4);
  EXPECT_EQ(reg.get_counter("tx").value(), 5);

  reg.get_gauge("phase").set(3);
  reg.get_gauge("phase").set(7);
  EXPECT_EQ(reg.get_gauge("phase").value(), 7);
  EXPECT_EQ(reg.get_gauge("phase").writes(), 2);
}

TEST(MetricsTest, LabeledLookupIsDistinct) {
  obs::metrics_registry reg;
  reg.get_counter("tx", "universal").add(2);
  reg.get_counter("tx", "geometric").add(5);
  EXPECT_EQ(reg.get_counter("tx", "universal").value(), 2);
  EXPECT_EQ(reg.get_counter("tx", "geometric").value(), 5);
  EXPECT_EQ(reg.find_counter("tx{universal}")->value(), 2);
  EXPECT_EQ(reg.find_counter("tx"), nullptr);
}

TEST(MetricsTest, ReferencesStayStableAcrossInsertions) {
  obs::metrics_registry reg;
  obs::counter& first = reg.get_counter("a");
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.get_counter(name).add();
  }
  first.add(9);
  EXPECT_EQ(reg.get_counter("a").value(), 9);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Bucket i holds values in (2^(i-1), 2^i]; bucket 0 holds v ≤ 1. The
  // boundary value 2^i must land in bucket i, and 2^i + 1 in bucket i+1.
  EXPECT_EQ(obs::histogram::bucket_index(0), 0);
  EXPECT_EQ(obs::histogram::bucket_index(1), 0);
  EXPECT_EQ(obs::histogram::bucket_index(2), 1);
  EXPECT_EQ(obs::histogram::bucket_index(3), 2);
  EXPECT_EQ(obs::histogram::bucket_index(4), 2);
  EXPECT_EQ(obs::histogram::bucket_index(5), 3);
  EXPECT_EQ(obs::histogram::bucket_index(8), 3);
  EXPECT_EQ(obs::histogram::bucket_index(9), 4);
  EXPECT_EQ(obs::histogram::bucket_index(1 << 20), 20);
  EXPECT_EQ(obs::histogram::bucket_index((1 << 20) + 1), 21);

  obs::histogram h;
  for (std::int64_t v : {1, 2, 3, 4, 100, 1000}) h.observe(v);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 1110);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 1110.0 / 6.0);
}

TEST(MetricsTest, HistogramPercentileBoundIsAnUpperBound) {
  obs::histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.observe(v);
  // The p50 bucket bound must cover at least half the mass but stay within
  // one power of two of the true median.
  const std::int64_t p50 = h.percentile_bound(50.0);
  EXPECT_GE(p50, 500);
  EXPECT_LE(p50, 1024);
  EXPECT_GE(h.percentile_bound(100.0), 1000);
}

TEST(MetricsTest, SeriesRecordsInOrder) {
  obs::metrics_registry reg;
  obs::series& s = reg.get_series("frontier");
  s.push(1);
  s.push(5);
  s.push(25);
  ASSERT_EQ(s.values().size(), 3u);
  EXPECT_EQ(s.values()[2], 25);
}

TEST(MetricsTest, ToJsonExportsAllKinds) {
  obs::metrics_registry reg;
  reg.get_counter("c").add(2);
  reg.get_gauge("g").set(4);
  reg.get_histogram("h").observe(9);
  reg.get_series("s").push(1);
  const obs::json_value j = reg.to_json();
  ASSERT_NE(j.find_path("counters.c"), nullptr);
  EXPECT_EQ(j.find_path("counters.c")->as_int(), 2);
  ASSERT_NE(j.find_path("gauges.g"), nullptr);
  ASSERT_NE(j.find_path("histograms.h"), nullptr);
  EXPECT_EQ(j.find_path("histograms.h.count")->as_int(), 1);
  ASSERT_NE(j.find_path("series.s"), nullptr);
  EXPECT_EQ(j.find_path("series.s")->items().size(), 1u);
}

TEST(MetricsTest, HistogramTopBucketBoundIsInt64Max) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(obs::histogram::bucket_index(kMax), 63);
  EXPECT_EQ(obs::histogram::bucket_upper_bound(63), kMax);
  EXPECT_LT(obs::histogram::bucket_upper_bound(62),
            obs::histogram::bucket_upper_bound(63));

  obs::histogram top;
  top.observe(kMax);
  EXPECT_EQ(top.percentile_bound(100.0), kMax);

  // Buckets 62 and 63 both non-empty: their exported bounds must differ.
  obs::metrics_registry reg;
  obs::histogram& h = reg.get_histogram("h");
  h.observe(3);
  h.observe((std::int64_t{1} << 61) + 1);  // bucket 62
  h.observe((std::int64_t{1} << 62) + 1);  // bucket 63
  const obs::json_value exported = reg.to_json();
  const obs::json_value* le = exported.find_path("histograms.h.bucket_le");
  ASSERT_NE(le, nullptr);
  ASSERT_EQ(le->items().size(), 3u);
  for (std::size_t i = 1; i < le->items().size(); ++i) {
    EXPECT_LT(le->items()[i - 1].as_int(), le->items()[i].as_int());
  }
  EXPECT_EQ(le->items().back().as_int(), kMax);
}

// ---------------------------------------------------------------------------
// metric_key handles
// ---------------------------------------------------------------------------

TEST(MetricKeyTest, HandleAndStringLookupReachTheSameInstrument) {
  const obs::metric_key tx("tx", "universal");
  const obs::metric_key phase("phase");
  const obs::metric_key cutoff("cutoff");
  EXPECT_EQ(tx.key(), "tx{universal}");
  EXPECT_EQ(phase.key(), "phase");

  obs::metrics_registry reg;
  reg.counter_at(tx).add(2);
  reg.get_counter("tx", "universal").add(3);
  EXPECT_EQ(&reg.counter_at(tx), &reg.get_counter("tx", "universal"));
  EXPECT_EQ(reg.counter_at(tx).value(), 5);

  reg.gauge_at(phase).set(4);
  EXPECT_EQ(&reg.gauge_at(phase), &reg.get_gauge("phase"));
  EXPECT_EQ(reg.get_gauge("phase").value(), 4);

  reg.histogram_at(cutoff).observe(9);
  EXPECT_EQ(&reg.histogram_at(cutoff), &reg.get_histogram("cutoff"));
  EXPECT_EQ(reg.get_histogram("cutoff").count(), 1);

  // Resolved first through the string form, then through the handle.
  const obs::metric_key late("late");
  obs::counter& by_name = reg.get_counter("late");
  EXPECT_EQ(&reg.counter_at(late), &by_name);
}

TEST(MetricKeyTest, DistinctKeysHaveDistinctIds) {
  const obs::metric_key a("a");
  const obs::metric_key b("a");  // same name, separate declaration
  const obs::metric_key c("c");
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  obs::metrics_registry reg;
  reg.counter_at(a).add();
  reg.counter_at(b).add();
  EXPECT_EQ(reg.get_counter("a").value(), 2);  // one instrument, one key
}

TEST(MetricKeyTest, NoInstrumentExistsBeforeFirstUse) {
  const obs::metric_key tx("tx", "geometric");
  const obs::metric_key stage("stage");
  const obs::metric_key cutoff("cutoff");
  obs::metrics_registry reg;
  const std::string empty = reg.to_json().dump();
  EXPECT_EQ(reg.find_counter("tx", "geometric"), nullptr);
  EXPECT_EQ(reg.find_gauge("stage"), nullptr);
  EXPECT_EQ(reg.find_histogram("cutoff"), nullptr);

  reg.counter_at(tx).add();
  EXPECT_NE(reg.find_counter("tx", "geometric"), nullptr);
  EXPECT_EQ(reg.find_gauge("stage"), nullptr);
  EXPECT_EQ(reg.find_histogram("cutoff"), nullptr);
  EXPECT_NE(reg.to_json().dump(), empty);

  // A key resolved for one kind creates nothing of another kind.
  EXPECT_EQ(reg.find_gauge("tx", "geometric"), nullptr);
}

TEST(MetricKeyTest, ClearMakesHandlesResolveFreshInstruments) {
  const obs::metric_key tx("tx");
  const obs::metric_key phase("phase");
  obs::metrics_registry reg;
  reg.counter_at(tx).add(7);
  reg.gauge_at(phase).set(3);
  reg.clear();
  EXPECT_EQ(reg.find_counter("tx"), nullptr);
  EXPECT_EQ(reg.find_gauge("phase"), nullptr);

  reg.counter_at(tx).add();
  EXPECT_EQ(reg.counter_at(tx).value(), 1);
  EXPECT_EQ(&reg.counter_at(tx), reg.find_counter("tx"));
  EXPECT_EQ(reg.gauge_at(phase).writes(), 0);
  EXPECT_EQ(reg.find_gauge("phase")->writes(), 0);
}

TEST(MetricKeyTest, CopiedRegistryHandlesWriteOnlyTheCopy) {
  const obs::metric_key tx("tx");
  const obs::metric_key cutoff("cutoff");
  obs::metrics_registry reg;
  reg.counter_at(tx).add(2);
  reg.histogram_at(cutoff).observe(4);

  obs::metrics_registry copy = reg;
  copy.counter_at(tx).add(10);
  copy.histogram_at(cutoff).observe(8);
  EXPECT_EQ(reg.get_counter("tx").value(), 2);
  EXPECT_EQ(reg.get_histogram("cutoff").count(), 1);
  EXPECT_EQ(copy.get_counter("tx").value(), 12);
  EXPECT_EQ(copy.get_histogram("cutoff").count(), 2);

  obs::metrics_registry assigned;
  assigned.counter_at(tx).add(100);
  assigned = reg;
  assigned.counter_at(tx).add();
  EXPECT_EQ(reg.get_counter("tx").value(), 2);
  EXPECT_EQ(assigned.get_counter("tx").value(), 3);
}

TEST(MetricKeyTest, MovedRegistryKeepsItsHandles) {
  const obs::metric_key tx("tx");
  obs::metrics_registry reg;
  obs::counter& before = reg.counter_at(tx);
  before.add(5);
  obs::metrics_registry moved = std::move(reg);
  EXPECT_EQ(&moved.counter_at(tx), &before);
  moved.counter_at(tx).add();
  EXPECT_EQ(moved.get_counter("tx").value(), 6);

  obs::metrics_registry assigned;
  assigned.counter_at(tx).add(100);
  assigned = std::move(moved);
  EXPECT_EQ(&assigned.counter_at(tx), &before);
  EXPECT_EQ(assigned.get_counter("tx").value(), 6);
}

TEST(MetricKeyTest, RegistriesAreIndependentUnderOneKey) {
  const obs::metric_key tx("tx", "source_step");
  obs::metrics_registry a, b;
  a.counter_at(tx).add(3);
  b.counter_at(tx).add(4);
  a.counter_at(tx).add();
  EXPECT_NE(&a.counter_at(tx), &b.counter_at(tx));
  EXPECT_EQ(a.get_counter("tx", "source_step").value(), 4);
  EXPECT_EQ(b.get_counter("tx", "source_step").value(), 4);
  EXPECT_EQ(b.find_counter("tx", "source_step"), &b.counter_at(tx));
}

TEST(MetricKeyTest, MergedShardsAfterHandleUseEqualTheSerialRegistry) {
  const obs::metric_key tx("tx", "geometric");
  const obs::metric_key stage("stage");
  const obs::metric_key cutoff("cutoff");
  // One "trial" writes through the handles; a serial registry sees all of
  // them, each shard registry a contiguous run, folded in shard order.
  const auto trial = [&](obs::metrics_registry& reg, int t) {
    for (int i = 0; i <= t % 4; ++i) reg.counter_at(tx).add();
    if (t % 3 != 0) reg.gauge_at(stage).set(t);
    reg.histogram_at(cutoff).observe(t * t);
  };
  obs::metrics_registry serial;
  for (int t = 0; t < 12; ++t) trial(serial, t);

  obs::metrics_registry merged;
  obs::counter& resolved = merged.counter_at(tx);  // resolved before merging
  for (const auto& [lo, hi] : {std::pair{0, 5}, std::pair{5, 6},
                               std::pair{6, 12}}) {
    obs::metrics_registry shard;
    for (int t = lo; t < hi; ++t) trial(shard, t);
    merged.merge(shard);
  }
  EXPECT_EQ(merged.to_json().dump(), serial.to_json().dump());
  // Handles resolved against the merged registry see the merged values.
  EXPECT_EQ(&merged.counter_at(tx), &resolved);
  EXPECT_EQ(resolved.value(), serial.counter_at(tx).value());
  EXPECT_EQ(merged.gauge_at(stage).value(), 11);
}

// ---------------------------------------------------------------------------
// JSON model + parser
// ---------------------------------------------------------------------------

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplacesInPlace) {
  obs::json_value o = obs::json_value::object();
  o.set("z", 1);
  o.set("a", 2);
  o.set("z", 3);
  EXPECT_EQ(o.dump(), "{\"z\":3,\"a\":2}");
}

TEST(JsonTest, RoundTripsThroughParser) {
  obs::json_value o = obs::json_value::object();
  o.set("int", std::int64_t{1234567890123});
  o.set("neg", -4);
  o.set("pi", 3.25);
  o.set("text", "quote \" backslash \\ newline \n unicode \u00e9");
  o.set("flag", true);
  o.set("nothing", nullptr);
  obs::json_value arr = obs::json_value::array();
  arr.push_back(1);
  arr.push_back("two");
  o.set("arr", std::move(arr));

  for (int indent : {-1, 2}) {
    std::string err;
    const auto parsed = obs::json_parse(o.dump(indent), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(*parsed, o) << "indent=" << indent;
    // Integers must survive as integers (no 1.23457e+12 mangling).
    EXPECT_EQ(parsed->find("int")->as_int(), 1234567890123);
  }
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\x\""}) {
    std::string err;
    EXPECT_FALSE(obs::json_parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(JsonTest, FindPathDescendsDottedKeys) {
  const auto doc = obs::json_parse(R"({"a":{"b":{"c":42}}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find_path("a.b.c"), nullptr);
  EXPECT_EQ(doc->find_path("a.b.c")->as_int(), 42);
  EXPECT_EQ(doc->find_path("a.x.c"), nullptr);
}

TEST(JsonTest, ExactIntAcceptsOnlyIntegralNumbersInRange) {
  const auto exact = [](const char* text) {
    const auto doc = obs::json_parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    return doc ? doc->as_exact_int() : std::nullopt;
  };
  EXPECT_EQ(exact("42"), 42);
  EXPECT_EQ(exact("-7"), -7);
  EXPECT_EQ(exact("1e6"), 1000000);
  EXPECT_EQ(exact("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  for (const char* bad : {"10.9", "1e300", "-1e300", "9223372036854775808",
                          "true", "\"8\"", "null", "[1]"}) {
    EXPECT_FALSE(exact(bad).has_value()) << bad;
  }

  std::string error;
  EXPECT_EQ(obs::int_in_range(obs::json_value(5), "k", 0, 9, &error), 5);
  EXPECT_FALSE(obs::int_in_range(obs::json_value(10), "k", 0, 9, &error));
  EXPECT_EQ(error, "\"k\" must be an integer in [0, 9]");
}

TEST(JsonTest, AsIntSaturatesOutOfRangeDoubles) {
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(obs::json_value(1e300).as_int(), kMax);
  EXPECT_EQ(obs::json_value(-1e300).as_int(), kMin);
  EXPECT_EQ(obs::json_value(std::nan("")).as_int(), 0);
  EXPECT_EQ(obs::json_value(-2.9).as_int(), -2);
}

// A document exercising every path of the writer: a seeded corpus of
// doubles (random bit patterns with |d| in about 1e-298 .. 1e298, and short
// decimals k·10^e), the special doubles, the int64 bounds, every string
// escape, and nested arrays and objects.
obs::json_value writer_corpus() {
  rng gen(20261020);
  obs::json_value doubles = obs::json_value::array();
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t biased_exponent = 1023 - 990 + gen.below(1981);
    const std::uint64_t bits =
        (gen.next() & 0x800FFFFFFFFFFFFFULL) | (biased_exponent << 52);
    doubles.push_back(std::bit_cast<double>(bits));
    char decimal[32];
    std::snprintf(decimal, sizeof decimal, "%de%d",
                  static_cast<int>(gen.uniform_int(-99999, 99999)),
                  static_cast<int>(gen.uniform_int(-290, 290)));
    doubles.push_back(std::strtod(decimal, nullptr));
  }
  for (const double d :
       {0.0, -0.0, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 0.5, -1.5, 100.0, 1e-7,
        5e-5, 1e-4, 1e15, 1e16, 1e17, 1e21, 1e22, 1e100, 0x1p53, 0x1p53 + 2,
        123456789012345678.0, std::numeric_limits<double>::epsilon(),
        1 + std::numeric_limits<double>::epsilon(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    doubles.push_back(d);
  }

  obs::json_value ints = obs::json_value::array();
  for (const std::int64_t i :
       {std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(), std::int64_t{0},
        std::int64_t{-1}, std::int64_t{1}, std::int64_t{1234567890123}}) {
    ints.push_back(i);
  }
  ints.push_back(std::size_t{42});

  obs::json_value strings = obs::json_value::array();
  for (const char* s :
       {"", "plain", "quote \" backslash \\ slash /", "\n\r\t\b\f",
        "\x01 \x1f \x7f", "utf-8 é ☃"}) {
    strings.push_back(s);
  }

  obs::json_value inner = obs::json_value::object();
  inner.set("empty_array", obs::json_value::array());
  inner.set("empty_object", obs::json_value::object());
  inner.set("key \"with\" escapes\n", "v");
  obs::json_value rows = obs::json_value::array();
  for (int r = 0; r < 3; ++r) {
    obs::json_value row = obs::json_value::array();
    row.push_back(r);
    row.push_back(obs::json_value::array());
    row.push_back(inner);
    rows.push_back(std::move(row));
  }

  obs::json_value doc = obs::json_value::object();
  doc.set("doubles", std::move(doubles));
  doc.set("ints", std::move(ints));
  doc.set("strings", std::move(strings));
  doc.set("rows", std::move(rows));
  doc.set("flags", obs::json_value::array());
  doc.set("null", nullptr);
  doc.set("true", true);
  doc.set("false", false);
  return doc;
}

// Pins the writer's bytes, compact and pretty-printed: a digest of the
// corpus's dump(-1), dump(2) and dump(0) taken from the ostringstream
// writer that preceded the to_chars one.
TEST(JsonTest, DumpBytesMatchParent) {
  const obs::json_value doc = writer_corpus();
  const std::string text =
      doc.dump() + "\n" + doc.dump(2) + "\n" + doc.dump(0);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the bytes
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::ostringstream shown;
  shown << std::hex << h << std::dec << " over " << text.size() << " bytes";
  EXPECT_EQ(shown.str(), "3d42531f08e817cd over 356234 bytes");
}

// Every finite double round-trips bit for bit, the extremes and the
// subnormals included; a literal outside the double range is a clean error.
TEST(JsonTest, ExtremeFiniteDoublesRoundTripBitForBit) {
  using limits = std::numeric_limits<double>;
  for (const double magnitude :
       {limits::min(), limits::denorm_min(), 1e-310, 1.7e308, limits::max(),
        0x1.fffffffffffffp-1023, 2.5e-308}) {
    for (const double d : {magnitude, -magnitude}) {
      std::string text;
      ASSERT_NO_THROW(text = obs::json_value(d).dump()) << d;
      std::string error;
      const auto back = obs::json_parse(text, &error);
      ASSERT_TRUE(back.has_value()) << text << ": " << error;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back->as_double()),
                std::bit_cast<std::uint64_t>(d))
          << text;
    }
  }
  const auto smallest = obs::json_parse("5e-324");
  ASSERT_TRUE(smallest.has_value());
  EXPECT_EQ(smallest->as_double(), limits::denorm_min());

  for (const char* bad : {"1e400", "-1e400", "1e-400", "[2e+308]", "1e",
                          "1-2", "+5", "-", "--1", "1.2.3"}) {
    std::string error;
    EXPECT_FALSE(obs::json_parse(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("number"), std::string::npos) << bad << ": " << error;
  }
}

TEST(JsonTest, ParserBoundsNestingDepth) {
  const std::string deep_ok = std::string(512, '[') + std::string(512, ']');
  EXPECT_TRUE(obs::json_parse(deep_ok).has_value());
  std::string error;
  const std::string too_deep = std::string(100000, '[');
  EXPECT_FALSE(obs::json_parse(too_deep, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

// The documents the system writes and reads back: a metrics export, a
// shard's trial-record NDJSON, a campaign manifest and a checkpoint.
std::vector<std::string> corruption_corpus() {
  std::vector<std::string> docs;
  {
    const graph g = make_complete_layered_uniform(32, 4);
    const auto proto = make_protocol("decay", 31);
    obs::metrics_registry metrics;
    run_options opts;
    opts.seed = 5;
    opts.metrics = &metrics;
    run_broadcast(g, *proto, opts);
    docs.push_back(metrics.to_json().dump());
  }
  {
    const graph g = make_complete_layered_uniform(24, 3);
    const auto proto = make_protocol("kp", 23, 3);
    trial_options topts;
    topts.trials = 6;
    topts.base_seed = 11;
    const trial_set set = run_trials(g, *proto, topts);
    campaign::shard_header h;
    h.campaign = "corrupt \"me\"";
    h.shard = 0;
    h.point = 0;
    h.case_name = "complete-layered/n=24/d=3/kp";
    h.params = obs::json_value::object();
    h.params.set("n", 24);
    h.params.set("p", 0.125);
    h.trials = topts.trials;
    h.base_seed = topts.base_seed;
    std::string text = campaign::header_record(h).dump() + "\n";
    for (trial_record t : set.trials) {
      t.wall_ms = 0.125 * static_cast<double>(t.seed);  // not the clock
      text += campaign::trial_record_json(t).dump() + "\n";
    }
    text += campaign::footer_record(0, topts.trials).dump() + "\n";
    docs.push_back(std::move(text));
  }
  {
    campaign::manifest m;
    m.name = "corpus";
    m.trials_per_point = 40;
    m.shard_size = 10;
    m.threads = 2;
    campaign::grid_point a;
    a.family = "gnp";
    a.n = 64;
    a.p = 0.0625;
    a.graph_seed = 7;
    a.protocol = "decay";
    campaign::grid_point b;
    b.family = "complete-layered";
    b.n = 48;
    b.d = 4;
    b.protocol = "kp";
    b.known_d = 4;
    m.grid = {a, b};
    docs.push_back(m.to_json().dump(2));
  }
  {
    campaign::checkpoint cp;
    cp.campaign = "corpus";
    cp.manifest_fingerprint = 0x0123456789abcdefULL;
    cp.total_shards = 8;
    cp.completed = {0, 2, 3, 7};
    cp.updated_unix_ms = 1760000000000;
    docs.push_back(cp.to_json().dump(2));
  }
  return docs;
}

// What goes wrong with one input, or "" when json_parse and ndjson_reader
// both answer it cleanly: a value that re-dumps to an equal document, or a
// diagnostic. The record decoders must also answer any parsed value.
std::string corruption_problem(const std::string& input) {
  try {
    std::string error;
    const std::optional<obs::json_value> doc = obs::json_parse(input, &error);
    if (doc) {
      const auto again = obs::json_parse(doc->dump());
      if (!again || !(*again == *doc)) return "parsed value does not re-dump";
      std::string ignored;
      campaign::parse_manifest(*doc, &ignored);
      campaign::parse_checkpoint(*doc, &ignored);
      campaign::parse_header(*doc, &ignored);
      campaign::parse_trial(*doc, &ignored);
    } else if (error.empty()) {
      return "json_parse failed without a diagnostic";
    }
    std::istringstream in(input);
    obs::ndjson_reader reader(in);
    while (reader.next().has_value()) {
    }
    if (reader.failed() && reader.error().empty()) {
      return "ndjson_reader failed without a diagnostic";
    }
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
  return "";
}

// Seeded corruptions of each corpus document — truncation at many offsets,
// bit flips, and splices of two documents — must each get a value or a
// clean error: never an exception, an abort or a sanitizer report.
TEST(JsonTest, CorruptedDocumentsGetAValueOrACleanError) {
  const std::vector<std::string> docs = corruption_corpus();
  rng gen(4);
  int inputs = 0;
  int problems = 0;
  std::string first_problem;
  const auto check = [&](const std::string& input) {
    ++inputs;
    const std::string problem = corruption_problem(input);
    if (problem.empty()) return;
    if (problems++ == 0) first_problem = problem + " on input: " + input;
  };
  for (const std::string& doc : docs) {
    ASSERT_FALSE(doc.empty());
    const std::size_t stride = doc.size() / 4000 + 1;
    for (std::size_t cut = 0; cut <= doc.size(); cut += stride) {
      check(doc.substr(0, cut));
    }
    for (int i = 0; i < 600; ++i) {
      std::string flipped = doc;
      const int flips = 1 + static_cast<int>(gen.below(3));
      for (int f = 0; f < flips; ++f) {
        flipped[gen.below(flipped.size())] ^=
            static_cast<char>(1U << gen.below(8));
      }
      check(flipped);
    }
    for (const std::string& other : docs) {
      for (int i = 0; i < 150; ++i) {
        check(doc.substr(0, gen.below(doc.size() + 1)) +
              other.substr(gen.below(other.size() + 1)));
      }
    }
  }
  EXPECT_GT(inputs, 8000);
  EXPECT_EQ(problems, 0) << first_problem;
}

// ---------------------------------------------------------------------------
// Span profiler
// ---------------------------------------------------------------------------

TEST(SpanTest, NestsAndAccumulates) {
  obs::span_profiler prof;
  for (int i = 0; i < 3; ++i) {
    obs::scoped_span outer(&prof, "outer");
    obs::scoped_span inner(&prof, "inner");
  }
  const obs::span_stats* outer = prof.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 3);
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0]->name, "inner");
  EXPECT_EQ(outer->children[0]->count, 3);
  EXPECT_LE(outer->children[0]->total_ns, outer->total_ns);
}

TEST(SpanTest, NullProfilerIsANoOp) {
  obs::scoped_span s(nullptr, "nothing");  // must not crash
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Trace: ring buffer + exports
// ---------------------------------------------------------------------------

trace_event make_event(std::int64_t step, trace_event::type t, node_id node) {
  trace_event e;
  e.step = step;
  e.what = t;
  e.node = node;
  e.msg = message{7, node, step, 2, 3, 4};
  return e;
}

TEST(TraceTest, RingBufferKeepsNewestAndCountsDropped) {
  trace tr(3);
  for (std::int64_t s = 0; s < 10; ++s) {
    tr.record(make_event(s, trace_event::type::transmit, 1));
  }
  EXPECT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.dropped(), 7u);
  EXPECT_EQ(tr.recorded(), 10u);
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].step, 7);  // oldest retained
  EXPECT_EQ(events[2].step, 9);  // newest
}

TEST(TraceTest, ShrinkingCapacityDropsOldest) {
  trace tr;
  for (std::int64_t s = 0; s < 5; ++s) {
    tr.record(make_event(s, trace_event::type::informed, 2));
  }
  tr.set_capacity(2);
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].step, 3);
  EXPECT_EQ(events[1].step, 4);
  EXPECT_EQ(tr.dropped(), 3u);
}

TEST(TraceTest, FilterSelectsOneTypeInOrder) {
  trace tr;
  tr.record(make_event(0, trace_event::type::transmit, 1));
  tr.record(make_event(1, trace_event::type::collision, 2));
  tr.record(make_event(2, trace_event::type::transmit, 3));
  const auto transmits = tr.filter(trace_event::type::transmit);
  ASSERT_EQ(transmits.size(), 2u);
  EXPECT_EQ(transmits[0].node, 1);
  EXPECT_EQ(transmits[1].node, 3);
  EXPECT_EQ(tr.filter(trace_event::type::informed).size(), 0u);
}

TEST(TraceTest, ToStringMentionsEveryEvent) {
  trace tr;
  tr.record(make_event(5, trace_event::type::transmit, 3));
  tr.record(make_event(6, trace_event::type::collision, 4));
  const std::string text = tr.to_string();
  EXPECT_NE(text.find("transmit"), std::string::npos);
  EXPECT_NE(text.find("collision"), std::string::npos);
  EXPECT_NE(text.find('5'), std::string::npos);
}

TEST(TraceTest, NdjsonRoundTripsThroughTheParser) {
  trace tr;
  tr.record(make_event(0, trace_event::type::transmit, 1));
  tr.record(make_event(0, trace_event::type::collision, 2));
  tr.record(make_event(1, trace_event::type::receive, 3));
  std::ostringstream out;
  tr.to_ndjson(out);

  std::string err;
  const auto lines = obs::ndjson_parse(out.str(), &err);
  ASSERT_TRUE(lines.has_value()) << err;
  ASSERT_EQ(lines->size(), 3u);
  EXPECT_EQ((*lines)[0].find("type")->as_string(), "transmit");
  // Message payload fields only appear on transmit/receive events.
  EXPECT_EQ((*lines)[0].find("kind")->as_int(), 7);
  EXPECT_EQ((*lines)[0].find("a")->as_int(), 0);
  EXPECT_EQ((*lines)[1].find("type")->as_string(), "collision");
  EXPECT_EQ((*lines)[1].find("kind"), nullptr);
  EXPECT_EQ((*lines)[2].find("node")->as_int(), 3);

  const auto summary = obs::json_parse(tr.summary_json(), &err);
  ASSERT_TRUE(summary.has_value()) << err;
  EXPECT_EQ(summary->find("events")->as_int(), 3);
  EXPECT_EQ(summary->find_path("by_type.transmit")->as_int(), 1);
}

// ---------------------------------------------------------------------------
// NDJSON streaming reader
// ---------------------------------------------------------------------------

TEST(NdjsonReaderTest, EmptyInputYieldsNothingCleanly) {
  std::istringstream in("");
  obs::ndjson_reader reader(in);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.failed());
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.documents(), 0);
  // Once drained, further calls stay drained.
  EXPECT_FALSE(reader.next().has_value());
}

TEST(NdjsonReaderTest, SkipsBlankLinesAndStripsCrlf) {
  std::istringstream in("{\"a\":1}\r\n\n\r\n{\"a\":2}\n");
  obs::ndjson_reader reader(in);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->find("a")->as_int(), 1);
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->find("a")->as_int(), 2);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.failed());
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.documents(), 2);
}

TEST(NdjsonReaderTest, TornFinalLineIsTruncationNotCorruption) {
  // The signature an interrupted writer leaves: a complete record, then a
  // record cut mid-byte with no trailing newline.
  std::istringstream in("{\"seed\":1,\"steps\":9}\n{\"seed\":2,\"st");
  obs::ndjson_reader reader(in);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->find("seed")->as_int(), 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(reader.documents(), 1);
}

TEST(NdjsonReaderTest, CompleteFinalLineWithoutNewlineIsFine) {
  std::istringstream in("{\"a\":1}\n{\"a\":2}");
  obs::ndjson_reader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->find("a")->as_int(), 2);
  EXPECT_FALSE(reader.truncated());
  EXPECT_FALSE(reader.failed());
}

TEST(NdjsonReaderTest, MalformedInteriorLineIsAHardError) {
  std::istringstream in("{\"a\":1}\nnot json\n{\"a\":3}\n");
  obs::ndjson_reader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.truncated());
  EXPECT_NE(reader.error().find("line 2"), std::string::npos)
      << reader.error();
  // A hard error is terminal: the valid-looking third line stays unread.
  EXPECT_FALSE(reader.next().has_value());
}

TEST(NdjsonReaderTest, StreamsAMultiMegabyteLine) {
  // Line length must be unbounded: build one record > 1 MiB.
  std::string big = "{\"blob\":\"";
  big.append(1 << 20, 'x');
  big += "\",\"tail\":42}\n{\"after\":1}\n";
  std::istringstream in(big);
  obs::ndjson_reader reader(in);
  const auto doc = reader.next();
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("blob")->as_string().size(), 1u << 20);
  EXPECT_EQ(doc->find("tail")->as_int(), 42);
  const auto after = reader.next();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->find("after")->as_int(), 1);
  EXPECT_FALSE(reader.failed());
}

TEST(NdjsonReaderTest, ShardRecordTypesRoundTrip) {
  // Every radiocast.shard.v1 record type survives write → stream → parse.
  campaign::shard_header h;
  h.campaign = "rt";
  h.shard = 3;
  h.point = 1;
  h.case_name = "path/n=8/decay";
  h.params = obs::json_value::object();
  h.params.set("n", 8);
  h.first_trial = 4;
  h.trials = 2;
  h.base_seed = 5;
  trial_record t;
  t.seed = 5;
  t.completed = true;
  t.steps = 17;
  t.informed_step = 16;
  t.transmissions = 33;
  t.collisions = 2;
  t.deliveries = 7;
  t.crashed_nodes = 1;
  t.suppressed_deliveries = 2;
  t.churned_edges = 3;
  t.wall_ms = 0.25;

  std::ostringstream out;
  campaign::header_record(h).write(out);
  out << '\n';
  campaign::trial_record_json(t).write(out);
  out << '\n';
  campaign::footer_record(3, 1).write(out);
  out << '\n';

  std::istringstream in(out.str());
  obs::ndjson_reader reader(in);
  const auto header_doc = reader.next();
  ASSERT_TRUE(header_doc.has_value());
  std::string err;
  const auto h2 = campaign::parse_header(*header_doc, &err);
  ASSERT_TRUE(h2.has_value()) << err;
  EXPECT_EQ(h2->campaign, "rt");
  EXPECT_EQ(h2->shard, 3);
  EXPECT_EQ(h2->point, 1);
  EXPECT_EQ(h2->case_name, "path/n=8/decay");
  EXPECT_EQ(h2->first_trial, 4);
  EXPECT_EQ(h2->trials, 2);
  EXPECT_EQ(h2->base_seed, 5u);

  const auto trial_doc = reader.next();
  ASSERT_TRUE(trial_doc.has_value());
  const auto t2 = campaign::parse_trial(*trial_doc, &err);
  ASSERT_TRUE(t2.has_value()) << err;
  EXPECT_EQ(t2->seed, 5u);
  EXPECT_TRUE(t2->completed);
  EXPECT_EQ(t2->steps, 17);
  EXPECT_EQ(t2->informed_step, 16);
  EXPECT_EQ(t2->transmissions, 33);
  EXPECT_EQ(t2->collisions, 2);
  EXPECT_EQ(t2->deliveries, 7);
  EXPECT_EQ(t2->crashed_nodes, 1);
  EXPECT_EQ(t2->suppressed_deliveries, 2);
  EXPECT_EQ(t2->churned_edges, 3);
  EXPECT_DOUBLE_EQ(t2->wall_ms, 0.25);

  const auto footer_doc = reader.next();
  ASSERT_TRUE(footer_doc.has_value());
  EXPECT_EQ(footer_doc->find("record")->as_string(), "footer");
  EXPECT_EQ(footer_doc->find("trials_written")->as_int(), 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.failed());
  EXPECT_FALSE(reader.truncated());
}

// ---------------------------------------------------------------------------
// Trace analytics
// ---------------------------------------------------------------------------

TEST(TraceAnalysisTest, PathTreeDepthEqualsCompletionStep) {
  // A path is the unit-width layered graph: node v's first delivery can
  // only come from v−1, so the first-delivery tree IS the path and its
  // depth is n−1. Round-robin with identity labels moves the frontier one
  // hop per step, so the run's completion step equals that depth — the
  // analyzer must reconstruct exactly this from the trace.
  const node_id n = 24;
  graph g = make_path(n);
  const auto proto = make_protocol("round-robin", n - 1);
  trace tr;
  run_options opts;
  opts.seed = 11;
  opts.sink = &tr;
  const run_result r = run_broadcast(g, *proto, opts);
  ASSERT_TRUE(r.completed);

  const trace_analysis a = analyze_trace(tr);
  EXPECT_EQ(a.nodes_informed, n);
  EXPECT_EQ(a.tree_depth, n - 1);
  EXPECT_EQ(a.tree_depth, r.informed_step);
  EXPECT_FALSE(a.missing_provenance);
  ASSERT_EQ(a.parent.size(), static_cast<std::size_t>(n));
  for (node_id v = 1; v < n; ++v) {
    EXPECT_EQ(a.parent[static_cast<std::size_t>(v)], v - 1);
    EXPECT_EQ(a.depth[static_cast<std::size_t>(v)], v);
  }
  // Unit-width layers: one node each, woken in step order.
  ASSERT_EQ(a.layers.size(), static_cast<std::size_t>(n));
  for (std::size_t d = 0; d < a.layers.size(); ++d) {
    EXPECT_EQ(a.layers[d].nodes, 1);
    EXPECT_EQ(a.layers[d].first_step, a.layers[d].last_step);
  }
  EXPECT_EQ(a.transmissions, r.transmissions);
  EXPECT_EQ(a.deliveries, r.deliveries);
}

TEST(TraceAnalysisTest, NdjsonExportAnalyzesIdentically) {
  graph g = make_complete_layered_uniform(96, 6);
  const auto proto = make_protocol("decay", 95);
  trace tr;
  run_options opts;
  opts.seed = 5;
  opts.sink = &tr;
  const run_result r = run_broadcast(g, *proto, opts);
  ASSERT_TRUE(r.completed);

  const trace_analysis direct = analyze_trace(tr);
  std::ostringstream ndjson;
  tr.to_ndjson(ndjson);
  std::istringstream in(ndjson.str());
  std::string err;
  const auto parsed = analyze_ndjson(in, &err);
  ASSERT_TRUE(parsed.has_value()) << err;

  EXPECT_EQ(parsed->nodes_informed, direct.nodes_informed);
  EXPECT_EQ(parsed->tree_depth, direct.tree_depth);
  // run_result::informed_step is "first step after which all informed" —
  // one past the step of the last informed trace event.
  EXPECT_EQ(parsed->last_informed_step, r.informed_step - 1);
  EXPECT_EQ(parsed->parent, direct.parent);
  EXPECT_EQ(parsed->depth, direct.depth);
  EXPECT_EQ(parsed->transmissions, direct.transmissions);
  EXPECT_EQ(parsed->collisions, direct.collisions);
  // Every node's parent lives one layer down: depth == its layer.
  EXPECT_EQ(parsed->tree_depth, 6);
}

TEST(TraceAnalysisTest, ProfilesRankByCountThenNode) {
  std::vector<trace_event> events;
  auto tx = [&](node_id v, std::int64_t step) {
    trace_event e;
    e.step = step;
    e.what = trace_event::type::transmit;
    e.node = v;
    events.push_back(e);
  };
  tx(4, 0);
  tx(2, 0);
  tx(2, 1);
  tx(7, 1);
  tx(7, 2);
  const trace_analysis a = analyze_events(events);
  ASSERT_EQ(a.transmitters.size(), 3u);
  EXPECT_EQ(a.transmitters[0].node, 2);  // count 2, lowest node first
  EXPECT_EQ(a.transmitters[1].node, 7);
  EXPECT_EQ(a.transmitters[2].node, 4);
  EXPECT_EQ(a.transmitters[0].count, 2);
  EXPECT_EQ(a.transmitters[2].count, 1);

  const obs::json_value doc = analysis_to_json(a, 2);
  EXPECT_EQ(doc.find("top_transmitters")->items().size(), 2u);
  EXPECT_EQ(doc.find("ranked_nodes_transmitters")->as_int(), 3);
}

// ---------------------------------------------------------------------------
// Simulator instrumentation contract
// ---------------------------------------------------------------------------

TEST(SimObservabilityTest, MetricsRegistryFillsSeriesAndPhaseCounters) {
  graph g = make_complete_layered_uniform(128, 8);
  const auto proto = make_protocol("decay", 127);
  obs::metrics_registry metrics;
  run_options opts;
  opts.seed = 3;
  opts.metrics = &metrics;
  const run_result r = run_broadcast(g, *proto, opts);
  ASSERT_TRUE(r.completed);

  // Per-step series must be exactly as long as the run.
  const obs::series* frontier = metrics.find_series("sim.informed_frontier");
  ASSERT_NE(frontier, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(frontier->values().size()), r.steps);
  EXPECT_EQ(frontier->values().back(), 128);
  const obs::series* tx = metrics.find_series("sim.transmissions");
  ASSERT_NE(tx, nullptr);
  std::int64_t total_tx = 0;
  for (std::int64_t v : tx->values()) total_tx += v;
  EXPECT_EQ(total_tx, r.transmissions);
  ASSERT_NE(metrics.find_series("sim.collisions"), nullptr);
  ASSERT_NE(metrics.find_series("sim.deliveries"), nullptr);
  ASSERT_NE(metrics.find_series("sim.idle_listeners"), nullptr);

  // Protocol phase markers: decay exposes its stage structure.
  EXPECT_NE(metrics.find_gauge("decay.phase"), nullptr);
  EXPECT_NE(metrics.find_histogram("decay.cutoff"), nullptr);
}

TEST(SimObservabilityTest, KpAndSelectAndSendExposePhaseMarkers) {
  graph g = make_complete_layered_uniform(64, 4);
  {
    obs::metrics_registry metrics;
    run_options opts;
    opts.metrics = &metrics;
    const auto kp = make_protocol("kp", 63, 4);
    ASSERT_TRUE(run_broadcast(g, *kp, opts).completed);
    ASSERT_NE(metrics.find_counter("kp.tx{universal}"), nullptr);
    EXPECT_GT(metrics.find_counter("kp.tx{universal}")->value(), 0);
    EXPECT_NE(metrics.find_gauge("kp.stage"), nullptr);
  }
  {
    obs::metrics_registry metrics;
    run_options opts;
    opts.metrics = &metrics;
    opts.stop = stop_condition::all_halted;
    opts.max_steps = 10'000'000;
    const auto sas = make_protocol("select-and-send", 63);
    ASSERT_TRUE(run_broadcast(g, *sas, opts).completed);
    ASSERT_NE(metrics.find_counter("sas.token_hops"), nullptr);
    EXPECT_GT(metrics.find_counter("sas.token_hops")->value(), 0);
    // Every non-source node is first-visited exactly once by the DFS token.
    ASSERT_NE(metrics.find_counter("sas.first_visits"), nullptr);
    EXPECT_EQ(metrics.find_counter("sas.first_visits")->value(), 63);
    EXPECT_NE(metrics.find_counter("echo.segments{binary}"), nullptr);
  }
}

TEST(SimObservabilityTest, ProfilerRecordsRunSpans) {
  graph g = make_path(16);
  const auto proto = make_protocol("round-robin", 15);
  obs::span_profiler prof;
  run_options opts;
  opts.profiler = &prof;
  ASSERT_TRUE(run_broadcast(g, *proto, opts).completed);
  const obs::span_stats* run = prof.find("run_broadcast");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count, 1);
  ASSERT_NE(prof.find("step_loop"), nullptr);
}

TEST(SimObservabilityTest, RunTrialsReportsTimeoutsAsData) {
  graph g = make_path(64);
  const auto proto = make_protocol("round-robin", 63);
  trial_options opts;
  opts.trials = 3;
  opts.max_steps = 10;  // far too few steps for a 64-node path
  const trial_set batch = run_trials(g, *proto, opts);
  EXPECT_EQ(batch.completed_count(), 0);
  EXPECT_DOUBLE_EQ(batch.timeout_rate(), 1.0);
  EXPECT_TRUE(batch.completion_steps().empty());
  for (const trial_record& t : batch.trials) {
    EXPECT_FALSE(t.completed);
    EXPECT_EQ(t.informed_step, -1);
    EXPECT_EQ(t.steps, 10);
  }
  // The throwing wrapper still aborts, for call sites that require
  // completion.
  EXPECT_THROW(completion_times(g, *proto, 1, 1, 10), invariant_error);
}

TEST(StatsTest, PercentilesBatchMatchesSingleCalls) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const auto ps = percentiles(samples, {50.0, 90.0, 99.0});
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_NEAR(ps[0], 50.5, 1e-9);
  EXPECT_NEAR(ps[1], 90.1, 1e-9);
  EXPECT_NEAR(ps[2], 99.01, 1e-9);
  const summary s = summarize(samples);
  EXPECT_NEAR(s.p90, ps[1], 1e-9);
  EXPECT_NEAR(s.p99, ps[2], 1e-9);
}

}  // namespace
}  // namespace radiocast
