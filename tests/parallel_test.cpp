// Parallel trial-execution tests: the thread pool, thread-count
// resolution, and — the core contract — bit-identical determinism of
// parallel_run_trials against serial run_trials, for randomized and
// deterministic protocols, with and without fault models, across thread
// counts, graphs and seed ranges. scripts/ci.sh additionally runs this
// suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "exec/thread_pool.h"
#include "fault/churn.h"
#include "fault/crash.h"
#include "fault/fault_model.h"
#include "fault/jammer.h"
#include "fault/loss.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace radiocast {
namespace {

// ---------------------------------------------------------------------------
// thread_pool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  exec::thread_pool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolTest, IsReusableAcrossWaitRounds) {
  exec::thread_pool pool(2);
  std::atomic<int> done{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  exec::thread_pool pool(1);
  pool.wait_idle();  // nothing submitted; must not hang
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    exec::thread_pool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(done.load(), 50);
}

// ---------------------------------------------------------------------------
// thread-count resolution
// ---------------------------------------------------------------------------

// RAII guard restoring RADIOCAST_THREADS afterwards, so this test cannot
// leak environment state into other tests.
class env_guard {
 public:
  explicit env_guard(const char* value) {
    const char* old = std::getenv("RADIOCAST_THREADS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv("RADIOCAST_THREADS", value, 1);
    } else {
      ::unsetenv("RADIOCAST_THREADS");
    }
  }
  ~env_guard() {
    if (had_) {
      ::setenv("RADIOCAST_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("RADIOCAST_THREADS");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(ResolveThreadsTest, ExplicitRequestWins) {
  env_guard guard("7");
  EXPECT_EQ(exec::resolve_threads(3), 3);
  EXPECT_EQ(exec::resolve_threads(1), 1);
}

TEST(ResolveThreadsTest, ZeroDefersToEnvironment) {
  {
    env_guard guard("5");
    EXPECT_EQ(exec::resolve_threads(0), 5);
  }
  {
    env_guard guard(nullptr);
    EXPECT_EQ(exec::resolve_threads(0), 1);  // unset ⇒ serial
  }
  {
    env_guard guard("nonsense");
    EXPECT_EQ(exec::resolve_threads(0), 1);  // unparsable ⇒ serial
  }
  {
    env_guard guard("auto");
    EXPECT_EQ(exec::resolve_threads(0), exec::hardware_threads());
  }
  {
    env_guard guard("0");
    EXPECT_EQ(exec::resolve_threads(0), exec::hardware_threads());
  }
}

TEST(ResolveThreadsTest, NegativeRequestIsRejected) {
  EXPECT_THROW(exec::resolve_threads(-1), precondition_error);
}

TEST(ResolveThreadsTest, HardwareThreadsIsPositive) {
  EXPECT_GE(exec::hardware_threads(), 1);
}

// ---------------------------------------------------------------------------
// determinism: parallel ≡ serial, bit for bit
// ---------------------------------------------------------------------------

// Everything except wall_ms (the one legitimately nondeterministic field)
// must match bit for bit.
void expect_same_records(const trial_set& serial, const trial_set& parallel,
                         const std::string& what) {
  ASSERT_EQ(serial.trials.size(), parallel.trials.size()) << what;
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    const trial_record& a = serial.trials[i];
    const trial_record& b = parallel.trials[i];
    const std::string where = what + ", trial " + std::to_string(i);
    EXPECT_EQ(a.seed, b.seed) << where;
    EXPECT_EQ(a.completed, b.completed) << where;
    EXPECT_EQ(a.steps, b.steps) << where;
    EXPECT_EQ(a.informed_step, b.informed_step) << where;
    EXPECT_EQ(a.transmissions, b.transmissions) << where;
    EXPECT_EQ(a.collisions, b.collisions) << where;
    EXPECT_EQ(a.deliveries, b.deliveries) << where;
    EXPECT_EQ(a.crashed_nodes, b.crashed_nodes) << where;
    EXPECT_EQ(a.suppressed_deliveries, b.suppressed_deliveries) << where;
    EXPECT_EQ(a.churned_edges, b.churned_edges) << where;
  }
}

// Every field the metrics export carries, compared instrument by
// instrument (plus gauge write counts). A stalled token run pushes each
// per-step series for the whole step cap, so the JSON tree of a full
// export runs to gigabytes, several times that under ThreadSanitizer.
template <class Map, class Same>
void expect_same_instruments(const Map& a, const Map& b, const Same& same,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first) << what;
    EXPECT_TRUE(same(ia->second, ib->second)) << what << ": " << ia->first;
  }
}

void expect_same_metrics(const obs::metrics_registry& a,
                         const obs::metrics_registry& b,
                         const std::string& what) {
  const std::string where = "merged metrics diverged: " + what;
  expect_same_instruments(
      a.counters(), b.counters(),
      [](const obs::counter& x, const obs::counter& y) {
        return x.value() == y.value();
      },
      where);
  expect_same_instruments(
      a.gauges(), b.gauges(),
      [](const obs::gauge& x, const obs::gauge& y) {
        return x.value() == y.value() && x.writes() == y.writes();
      },
      where);
  expect_same_instruments(
      a.histograms(), b.histograms(),
      [](const obs::histogram& x, const obs::histogram& y) {
        if (x.count() != y.count() || x.sum() != y.sum() ||
            x.min() != y.min() || x.max() != y.max()) {
          return false;
        }
        for (int i = 0; i < obs::histogram::kBuckets; ++i) {
          if (x.bucket(i) != y.bucket(i)) return false;
        }
        return true;
      },
      where);
  expect_same_instruments(
      a.all_series(), b.all_series(),
      [](const obs::series& x, const obs::series& y) {
        return x.values() == y.values();
      },
      where);
}

struct fault_setup {
  std::string tag;
  // Fresh instances per invocation so the serial and parallel batches each
  // get an unshared model (the parallel path additionally clones per
  // worker internally).
  std::unique_ptr<fault::fault_model> model;
  std::vector<std::unique_ptr<fault::fault_model>> parts;  // composite kids
};

fault_setup make_fault_setup(const std::string& kind) {
  fault_setup out;
  out.tag = kind;
  if (kind == "none") return out;
  if (kind == "loss") {
    out.model = std::make_unique<fault::loss_model>(fault::loss_options{0.25});
    return out;
  }
  if (kind == "jam") {
    out.model = std::make_unique<fault::jammer_model>(
        fault::jammer_options{1, fault::jam_strategy::oblivious_random});
    return out;
  }
  // composite: crash + churn + loss stacked (undirected graphs only).
  fault::crash_options copts;
  copts.crash_probability = 0.001;
  copts.spare_source = true;
  out.parts.push_back(std::make_unique<fault::crash_model>(copts));
  out.parts.push_back(
      std::make_unique<fault::churn_model>(fault::churn_options{0.05}));
  out.parts.push_back(
      std::make_unique<fault::loss_model>(fault::loss_options{0.1}));
  std::vector<fault::fault_model*> raw;
  for (const auto& m : out.parts) raw.push_back(m.get());
  out.model = std::make_unique<fault::composite_fault_model>(std::move(raw));
  return out;
}

trial_set run_batch(const graph& g, const protocol& proto, int trials,
                    std::uint64_t base_seed, int threads,
                    const std::string& fault_kind,
                    obs::metrics_registry* metrics) {
  fault_setup faults = make_fault_setup(fault_kind);
  trial_options topts;
  topts.trials = trials;
  topts.base_seed = base_seed;
  topts.max_steps = 200'000;
  topts.metrics = metrics;
  topts.faults = faults.model.get();
  topts.threads = threads;
  return threads == 1 ? run_trials(g, proto, topts)
                      : parallel_run_trials(g, proto, topts);
}

// The matrix of the determinism regression: protocols × graphs × fault
// mixes × thread counts × seed ranges, records AND merged metrics compared
// against the serial baseline. One test instance per graph × protocol.
const std::vector<std::string> kMatrixGraphs = {"gnp36", "layered48",
                                                "tree40"};
const std::vector<std::string> kMatrixProtocols = {"decay", "kp",
                                                   "select-and-send"};

graph matrix_graph(const std::string& tag) {
  // Every instance draws the random graphs in the same order from the
  // same generator, so each sees exactly the graph its tag names.
  rng topo_gen(2024);
  graph gnp = make_gnp_connected(36, 0.15, topo_gen);
  if (tag == "gnp36") return gnp;
  if (tag == "layered48") return make_complete_layered_uniform(48, 4);
  return make_random_tree(40, topo_gen);
}

class ParallelMatrixTest
    : public testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(ParallelMatrixTest, BitIdenticalToSerialAcrossMatrix) {
  const auto& [graph_tag, proto_name] = GetParam();
  const graph g = matrix_graph(graph_tag);
  const std::vector<std::string> fault_kinds = {"none", "loss", "composite"};
  const std::vector<int> thread_counts = {2, 8};
  const int trials = 10;

  const auto proto =
      make_protocol(proto_name, g.node_count() - 1, radius_from(g));
  for (const std::string& fault_kind : fault_kinds) {
    for (const std::uint64_t base_seed :
         {std::uint64_t{1}, std::uint64_t{977}}) {
      obs::metrics_registry serial_metrics;
      const trial_set serial = run_batch(g, *proto, trials, base_seed, 1,
                                         fault_kind, &serial_metrics);
      for (const int threads : thread_counts) {
        const std::string what = graph_tag + "/" + proto_name + "/" +
                                 fault_kind + "/t" + std::to_string(threads) +
                                 "/s" + std::to_string(base_seed);
        obs::metrics_registry parallel_metrics;
        const trial_set parallel =
            run_batch(g, *proto, trials, base_seed, threads, fault_kind,
                      &parallel_metrics);
        expect_same_records(serial, parallel, what);
        expect_same_metrics(serial_metrics, parallel_metrics, what);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParallelTrialsTest, ParallelMatrixTest,
    testing::Combine(testing::ValuesIn(kMatrixGraphs),
                     testing::ValuesIn(kMatrixProtocols)),
    [](const testing::TestParamInfo<std::tuple<std::string, std::string>>&
           param) {
      std::string name =
          std::get<0>(param.param) + "_" + std::get<1>(param.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ParallelTrialsTest, JammerModelAlsoBitIdentical) {
  rng topo_gen(5);
  const graph g = make_gnp_connected(32, 0.18, topo_gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  const trial_set serial = run_batch(g, *proto, 12, 3, 1, "jam", nullptr);
  const trial_set parallel = run_batch(g, *proto, 12, 3, 4, "jam", nullptr);
  expect_same_records(serial, parallel, "gnp32/decay/jam");
}

TEST(ParallelTrialsTest, MoreThreadsThanTrialsCoversExactSeedRange) {
  const graph g = make_complete_layered_uniform(30, 3);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  trial_options topts;
  topts.trials = 7;
  topts.base_seed = 42;
  topts.threads = 16;
  const trial_set batch = parallel_run_trials(g, *proto, topts);
  ASSERT_EQ(batch.trials.size(), 7u);
  for (std::size_t t = 0; t < batch.trials.size(); ++t) {
    EXPECT_EQ(batch.trials[t].seed, 42u + t);
  }
}

TEST(ParallelTrialsTest, SingleTrialTakesSerialPath) {
  const graph g = make_complete_layered_uniform(20, 2);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  trial_options topts;
  topts.trials = 1;
  topts.threads = 8;
  const trial_set batch = parallel_run_trials(g, *proto, topts);
  ASSERT_EQ(batch.trials.size(), 1u);
  EXPECT_TRUE(batch.trials[0].completed);
}

TEST(ParallelTrialsTest, ThreadsFieldZeroHonorsEnvDefault) {
  const graph g = make_complete_layered_uniform(24, 3);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  trial_options topts;
  topts.trials = 6;
  topts.base_seed = 9;
  topts.threads = 1;
  const trial_set serial = run_trials(g, *proto, topts);

  env_guard guard("3");
  topts.threads = 0;  // → RADIOCAST_THREADS = 3
  const trial_set parallel = parallel_run_trials(g, *proto, topts);
  expect_same_records(serial, parallel, "env-default threads");
}

TEST(ParallelTrialsTest, AllHaltedStopConditionSupported) {
  // Token-termination protocols exercise stop_condition::all_halted.
  const graph g = make_complete_layered_uniform(24, 3);
  const auto proto = make_protocol("select-and-send", g.node_count() - 1);
  trial_options topts;
  topts.trials = 4;
  topts.stop = stop_condition::all_halted;
  topts.max_steps = 500'000;
  topts.threads = 1;
  const trial_set serial = run_trials(g, *proto, topts);
  topts.threads = 2;
  const trial_set parallel = parallel_run_trials(g, *proto, topts);
  expect_same_records(serial, parallel, "all_halted");
}

TEST(ParallelTrialsTest, TimeoutsStayDataInParallel) {
  // A cap far below completion: every trial must time out identically.
  const graph g = make_complete_layered_uniform(40, 8);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  trial_options topts;
  topts.trials = 6;
  topts.max_steps = 3;
  topts.threads = 4;
  const trial_set batch = parallel_run_trials(g, *proto, topts);
  EXPECT_EQ(batch.completed_count(), 0u);
  EXPECT_DOUBLE_EQ(batch.timeout_rate(), 1.0);
  for (const trial_record& t : batch.trials) {
    EXPECT_EQ(t.steps, 3);
    EXPECT_EQ(t.informed_step, -1);
  }
}

// A model that keeps the base class's null clone(): the parallel path must
// refuse it loudly rather than silently sharing state across workers.
class uncloneable_model final : public fault::fault_model {
 public:
  std::string name() const override { return "uncloneable"; }
  void begin_run(const fault::run_view& view) override { (void)view; }
};

TEST(ParallelTrialsTest, NonCloneableFaultModelIsACheckedError) {
  const graph g = make_complete_layered_uniform(20, 2);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  uncloneable_model model;
  trial_options topts;
  topts.trials = 4;
  topts.faults = &model;
  topts.threads = 2;
  EXPECT_THROW(parallel_run_trials(g, *proto, topts), invariant_error);
  // Serial still works: no cloning needed.
  topts.threads = 1;
  const trial_set batch = parallel_run_trials(g, *proto, topts);
  EXPECT_EQ(batch.trials.size(), 4u);
}

TEST(ParallelTrialsTest, WorkerSpansFoldIntoCallerProfiler) {
  const graph g = make_complete_layered_uniform(24, 3);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  obs::span_profiler profiler;
  trial_options topts;
  topts.trials = 8;
  topts.threads = 2;
  topts.profiler = &profiler;
  parallel_run_trials(g, *proto, topts);
  const obs::span_stats* batch = profiler.find("parallel_run_trials");
  ASSERT_NE(batch, nullptr);
  const obs::span_stats* runs = profiler.find("run_broadcast");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->count, 8);  // every trial's span survived the merge
}

// ---------------------------------------------------------------------------
// metrics_registry::merge semantics (unit level)
// ---------------------------------------------------------------------------

TEST(MetricsMergeTest, CountersAndHistogramsAdd) {
  obs::metrics_registry a, b;
  a.get_counter("x").add(3);
  b.get_counter("x").add(4);
  b.get_counter("y").add(1);
  a.get_histogram("h").observe(2);
  b.get_histogram("h").observe(100);
  a.merge(b);
  EXPECT_EQ(a.get_counter("x").value(), 7);
  EXPECT_EQ(a.get_counter("y").value(), 1);
  EXPECT_EQ(a.get_histogram("h").count(), 2);
  EXPECT_EQ(a.get_histogram("h").sum(), 102);
  EXPECT_EQ(a.get_histogram("h").min(), 2);
  EXPECT_EQ(a.get_histogram("h").max(), 100);
}

TEST(MetricsMergeTest, GaugeKeepsLastWrittenValueInMergeOrder) {
  obs::metrics_registry a, b, c;
  a.get_gauge("g").set(1);
  b.get_gauge("g").set(2);
  // c never writes "g".
  c.get_gauge("other").set(9);
  a.merge(b);
  a.merge(c);  // an unwritten gauge must NOT clobber the value
  EXPECT_EQ(a.get_gauge("g").value(), 2);
  EXPECT_EQ(a.get_gauge("g").writes(), 2);
}

TEST(MetricsMergeTest, SeriesConcatenateInMergeOrder) {
  obs::metrics_registry a, b;
  a.get_series("s").push(1);
  a.get_series("s").push(2);
  b.get_series("s").push(3);
  a.merge(b);
  const std::vector<std::int64_t> want{1, 2, 3};
  EXPECT_EQ(a.get_series("s").values(), want);
}

TEST(MetricsMergeTest, MergeIntoEmptyReproducesSource) {
  obs::metrics_registry src, dst;
  src.get_counter("c", "lbl").add(5);
  src.get_gauge("g").set(-3);
  src.get_histogram("h").observe(17);
  src.get_series("s").push(11);
  dst.merge(src);
  EXPECT_EQ(dst.to_json().dump(), src.to_json().dump());
}

}  // namespace
}  // namespace radiocast
