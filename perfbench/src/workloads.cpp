#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "campaign/artifact.h"
#include "campaign/campaign.h"
#include "campaign/manifest.h"
#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "fault/fault_model.h"
#include "fault/loss.h"
#include "fault/recovery.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using radiocast::graph;
using radiocast::node_id;
using radiocast::protocol;
using radiocast::run_options;
using radiocast::run_result;
using radiocast::step_engine;
using radiocast::trial_options;
using radiocast::trial_record;
using radiocast::obs::json_value;

// ------------------------------------------------------------- run_report

void run_report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void run_report::metric(const std::string& name, const std::string& unit,
                        double value) {
  json_value m = json_value::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics_.set(name, std::move(m));
}

void run_report::detail(const std::string& key, json_value value) {
  details_.set(key, std::move(value));
}

json_value run_report::to_json() const {
  json_value out = json_value::object();
  out.set("correct", correct());
  out.set("attempted", attempted_);
  out.set("failed", failed_);
  out.set("failed_frac", attempted_ > 0 ? static_cast<double>(failed_) /
                                              static_cast<double>(attempted_)
                                        : 1.0);
  json_value failures = json_value::array();
  for (const std::string& f : failures_) failures.push_back(f);
  out.set("failures", std::move(failures));
  out.set("metrics", metrics_);
  out.set("details", details_);
  return out;
}

namespace {

// ---------------------------------------------------------------- helpers

/// Independent sub-seed of the workload seed. Kept below 2^40 so it
/// survives the manifest's int64 JSON round trip and base_seed + t never
/// wraps.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return radiocast::splitmix64(state) >> 24;
}

/// Worker threads for trial batches: min(4, CPUs), never 0, so the
/// RADIOCAST_THREADS environment default cannot change a workload.
int trial_threads() { return std::min(4, available_cpus()); }

/// Times `make` once, then again while under 50 ms (at most 100 calls),
/// appending each duration to `out`. Plain runs call it before every unit,
/// so setup_s is a median over samples spread across the whole run: the
/// host's speed drifts within a run, and one burst at its start would
/// catch a single moment of it.
template <typename F>
void time_setups(std::vector<double>& out, F&& make) {
  const auto start = clock_type::now();
  for (int i = 0; i == 0 || (i < 100 && seconds_since(start) < 0.05); ++i) {
    const auto t0 = clock_type::now();
    make();
    out.push_back(seconds_since(t0));
  }
}

/// Calls unit() until `seconds` have passed (at least once) and returns
/// its results. With `warm_up`, one unrecorded call comes first, so caches
/// and the allocator are warm before anything is timed.
template <typename F>
auto repeat_for(double seconds, bool warm_up, F&& unit) {
  if (warm_up) unit();
  std::vector<decltype(unit())> out;
  const auto start = clock_type::now();
  do {
    out.push_back(unit());
  } while (seconds_since(start) < seconds);
  return out;
}

/// One unit of work: a broadcast, a batch plus its export, or a campaign
/// run plus its merge.
struct unit_sample {
  double wall_s = 0.0;
  std::int64_t steps = 0;        ///< simulated steps, summed over trials
  std::vector<double> trial_ms;  ///< wall-clock of each broadcast
};

std::vector<double> walls_of(const std::vector<unit_sample>& units) {
  std::vector<double> walls;
  for (const unit_sample& u : units) walls.push_back(u.wall_s);
  return walls;
}

void report_end_to_end(run_report& rep, const std::vector<double>& setups,
                       const std::vector<unit_sample>& units) {
  std::vector<double> step_rates;
  std::vector<double> trial_rates;
  std::vector<double> trial_ms;
  json_value unit_walls = json_value::array();
  for (const unit_sample& u : units) {
    step_rates.push_back(static_cast<double>(u.steps) / u.wall_s);
    trial_rates.push_back(static_cast<double>(u.trial_ms.size()) / u.wall_s);
    trial_ms.insert(trial_ms.end(), u.trial_ms.begin(), u.trial_ms.end());
    unit_walls.push_back(u.wall_s);
  }
  const std::vector<double> walls = walls_of(units);
  rep.metric("setup_s", "s", median(setups));
  rep.metric("wall_s", "s", median(walls));
  rep.metric("steps_per_s", "steps/s", median(step_rates));
  rep.metric("trials_per_s", "trials/s", median(trial_rates));
  rep.metric("peak_rss_mb", "MB", peak_rss_mb());
  rep.detail("setup_samples", setups.size());
  rep.detail("units", units.size());
  rep.detail("unit_wall_s", std::move(unit_walls));
  rep.detail("trial_samples", trial_ms.size());
  rep.detail("trial_ms_p50", median(trial_ms));
  const std::optional<double> p95 = tail_percentile(trial_ms, 95.0);
  rep.detail("trial_ms_p95", p95 ? json_value(*p95) : json_value(nullptr));
}

/// Per-layer metrics of a traced run, with units. Every traced run reports
/// all of them; a layer the workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"graph.build_s", "s"},
      {"graph.nodes", "count"},
      {"graph.edges", "count"},
      {"graph.csr_bytes", "bytes"},
      {"sim.setup_ms", "ms"},
      {"sim.step_loop_ms", "ms"},
      {"sim.steps", "count"},
      {"sim.post_inform_steps", "count"},
      {"sim.awake_node_steps", "count"},
      {"sim.edge_visits", "count"},
      {"sim.ns_per_node_step", "ns"},
      {"sim.ns_per_edge_visit", "ns"},
      {"sim.transmissions", "count"},
      {"sim.deliveries", "count"},
      {"sim.collisions", "count"},
      {"sim.delivery_yield", "ratio"},
      {"fault.begin_step_ms", "ms"},
      {"fault.filter_ms", "ms"},
      {"fault.calls", "count"},
      {"fault.crashes", "count"},
      {"fault.recoveries", "count"},
      {"fault.suppressed", "count"},
      {"exec.busy_s", "s"},
      {"exec.efficiency", "ratio"},
      {"exec.fold_wait_ms", "ms"},
      {"obs.metrics_overhead", "ratio"},
      {"obs.export_ms", "ms"},
      {"obs.export_bytes", "bytes"},
      {"campaign.run_s", "s"},
      {"campaign.merge_s", "s"},
      {"campaign.shards", "count"},
      {"campaign.bytes_written", "bytes"},
      {"campaign.checkpoint_bytes", "bytes"},
      {"campaign.sim_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kMetrics;
}

using layer_sample = std::map<std::string, double>;

/// Reports each per-layer metric as its median over the traced units.
void report_layers(run_report& rep, const std::vector<layer_sample>& samples) {
  for (const auto& [name, unit] : layer_metrics()) {
    std::vector<double> v;
    for (const layer_sample& s : samples) {
      if (auto it = s.find(name); it != s.end()) v.push_back(it->second);
    }
    rep.metric(name, unit, median(std::move(v)));
  }
}

void add_graph_layer(layer_sample& s, const graph& g, double build_s) {
  s["graph.build_s"] += build_s;
  s["graph.nodes"] += g.node_count();
  s["graph.edges"] += static_cast<double>(g.edge_count());
  s["graph.csr_bytes"] += static_cast<double>(csr_bytes_computed(g));
}

/// Time the engine spent in its `setup` and `step_loop` spans.
void add_engine_spans(layer_sample& s, const radiocast::obs::span_profiler& p) {
  const auto* setup = p.find("setup");
  const auto* loop = p.find("step_loop");
  s["sim.setup_ms"] = setup != nullptr ? setup->total_ms() : 0.0;
  s["sim.step_loop_ms"] = loop != nullptr ? loop->total_ms() : 0.0;
}

// ------------------------------------------------------------------- pins

/// Deterministic outputs of a run or a batch, compared against the pins at
/// the default seed and across repeated units of one run.
struct pins {
  std::int64_t steps = 0;
  std::int64_t informed_step = 0;
  std::int64_t transmissions = 0;
  std::int64_t collisions = 0;
  std::int64_t deliveries = 0;
  std::uint64_t digest = 0;  ///< informed_at and per-node transmissions,
                             ///< or every trial record

  bool operator==(const pins&) const = default;

  json_value to_json() const {
    json_value v = json_value::object();
    v.set("steps", steps);
    v.set("informed_step", informed_step);
    v.set("transmissions", transmissions);
    v.set("collisions", collisions);
    v.set("deliveries", deliveries);
    v.set("digest", std::to_string(digest));
    return v;
  }
};

pins pins_of(const run_result& r) {
  digest d;
  d.add(r.informed_at);
  d.add(r.transmissions_per_node);
  return {r.steps,      r.informed_step, r.transmissions,
          r.collisions, r.deliveries,    d.value()};
}

pins pins_of(const std::vector<trial_record>& records) {
  pins p;
  digest d;
  for (const trial_record& t : records) {
    p.steps += t.steps;
    p.informed_step += t.informed_step;
    p.transmissions += t.transmissions;
    p.collisions += t.collisions;
    p.deliveries += t.deliveries;
    add_record(d, t);
  }
  p.digest = d.value();
  return p;
}

/// Outputs at kDefaultSeed, derived on step_engine::reference by
/// `perfbench --derive-pins --workload <name>`.
const std::map<std::string, pins>& default_seed_pins() {
  static const std::map<std::string, pins> kPins = {
      {"bcast_mega",
       {7541, 7541, 35936150, 24322380, 25273050, 3330330448411626534ULL}},
      {"det_full",
       {769744, 608960, 6402048, 28498880, 82968048, 13970424732440426861ULL}},
      {"trial_batch",
       {83561, 77282, 15074303, 21179459, 3638152, 10260654113854200891ULL}},
      {"campaign_sweep",
       {879998, 879998, 8851830, 12321656, 6864827, 5587669574285767241ULL}},
  };
  return kPins;
}

/// Digest of the merged campaign document's cases after
/// campaign::strip_wall_clock_keys, at kDefaultSeed.
constexpr std::uint64_t kCampaignDocDigest = 9647794227094141918ULL;

void check_pins(run_report& rep, const run_config& cfg, const pins& got) {
  rep.detail("pins", got.to_json());
  if (cfg.seed != kDefaultSeed) return;
  const auto& table = default_seed_pins();
  const auto it = table.find(cfg.workload);
  rep.attempt(it != table.end() && it->second == got,
              "outputs differ from the default-seed pins");
}

// ---------------------------------------------------- broadcast workloads

/// A workload of full broadcasts on one graph (bcast_mega, det_full).
struct single_spec {
  int trials = 0;  ///< broadcasts per batch
  std::function<graph(bool small, std::uint64_t seed)> make_graph;
  std::function<std::unique_ptr<protocol>(node_id n)> make_protocol;
  std::function<run_options(std::uint64_t seed, step_engine engine)> options;
};

void check_single_result(run_report& rep, const graph& g, const run_result& r) {
  rep.attempt(r.completed, "broadcast did not reach its stop condition");
  rep.attempt(r.informed_step >= 0 && r.informed_step <= r.steps,
              "informed_step outside [0, steps]");
  rep.attempt(std::all_of(r.informed_at.begin(), r.informed_at.end(),
                          [](std::int64_t t) { return t >= 0; }),
              "a node was never informed");
  std::int64_t tx = 0;
  for (const std::int64_t t : r.transmissions_per_node) tx += t;
  rep.attempt(tx == r.transmissions,
              "per-node transmissions do not sum to the total");
  rep.attempt(r.deliveries >= g.node_count() - 1,
              "fewer deliveries than informed nodes");
}

void reference_check_single(run_report& rep, const run_config& cfg,
                            const single_spec& spec) {
  const graph g = spec.make_graph(true, cfg.seed);
  const auto proto = spec.make_protocol(g.node_count());
  const run_result fast = radiocast::run_broadcast(
      g, *proto, spec.options(cfg.seed, step_engine::soa));
  const run_result oracle = radiocast::run_broadcast(
      g, *proto, spec.options(cfg.seed, step_engine::reference));
  rep.attempt(pins_of(fast) == pins_of(oracle),
              "small copy differs from step_engine::reference");
}

// bcast_mega: Decay broadcasts over a 2^17-node sparse G(n, p) of mean
// degree 8, soa engine, step_threads=1, 16 per batch (see run_broadcasts).
// At 2^20 nodes one broadcast takes ~10 s on a 4-vCPU Xeon VM, too few
// units per run for a steady median.
constexpr node_id kMegaN = 1 << 17;
constexpr node_id kMegaSmallN = 1 << 12;
constexpr double kMegaDegree = 8.0;

single_spec bcast_mega_spec() {
  single_spec s;
  s.trials = 16;
  s.make_graph = [](bool small, std::uint64_t seed) {
    const node_id n = small ? kMegaSmallN : kMegaN;
    radiocast::rng gen(derive(seed, 1));
    return radiocast::make_gnp_sparse_connected(
        n, kMegaDegree / static_cast<double>(n), gen);
  };
  s.make_protocol = [](node_id n) {
    return radiocast::make_protocol("decay", n - 1);
  };
  s.options = [](std::uint64_t seed, step_engine engine) {
    run_options o;
    o.seed = derive(seed, 2);
    o.engine = engine;
    o.step_threads = 1;
    o.max_steps = 1'000'000;
    return o;
  };
  return s;
}

// det_full: full Select-and-Send traversals of a complete layered network,
// run to all_halted on the soa engine with step_threads=1 (see
// run_broadcasts).
constexpr node_id kDetN = 1536;
constexpr int kDetD = 16;
constexpr node_id kDetSmallN = 256;
constexpr int kDetSmallD = 8;

/// Complete layered network on n nodes and radius d whose layer sizes are
/// drawn from n/d ± 1/8 (then nudged to sum to n − 1), so the seed varies
/// the input while its family, size and radius stay fixed. Relabelling
/// cannot do that: every layer of a complete layered network is a set of
/// twins, so any label permutation within layers is an automorphism.
graph jittered_layered(node_id n, int d, radiocast::rng& gen) {
  const node_id mean = (n - 1) / d;
  const node_id spread = std::max<node_id>(1, mean / 8);
  std::vector<node_id> sizes(static_cast<std::size_t>(d) + 1, 1);
  node_id total = 0;
  for (int i = 1; i <= d; ++i) {
    sizes[static_cast<std::size_t>(i)] =
        mean + static_cast<node_id>(gen.uniform_int(-spread, spread));
    total += sizes[static_cast<std::size_t>(i)];
  }
  for (int i = 1; total != n - 1; i = i % d + 1) {
    const node_id step = total < n - 1 ? 1 : -1;
    sizes[static_cast<std::size_t>(i)] += step;
    total += step;
  }
  return radiocast::make_complete_layered(sizes);
}

single_spec det_full_spec() {
  single_spec s;
  s.trials = 8;
  s.make_graph = [](bool small, std::uint64_t seed) {
    radiocast::rng gen(derive(seed, 3));
    return jittered_layered(small ? kDetSmallN : kDetN,
                            small ? kDetSmallD : kDetD, gen);
  };
  s.make_protocol = [](node_id n) {
    return radiocast::make_protocol("select-and-send", n - 1);
  };
  s.options = [](std::uint64_t seed, step_engine engine) {
    run_options o;
    o.seed = derive(seed, 4);
    o.engine = engine;
    o.step_threads = 1;
    o.stop = radiocast::stop_condition::all_halted;
    o.max_steps = 100'000'000;
    return o;
  };
  return s;
}

// ------------------------------------------------------------ trial_batch

constexpr node_id kBatchN = 1024;
constexpr int kBatchD = 64;
constexpr int kBatchTrials = 128;
constexpr node_id kBatchSmallN = 128;
constexpr int kBatchSmallD = 8;
constexpr int kBatchSmallTrials = 16;

/// Graph, protocol and fault models of a KP trial batch. The composite
/// model borrows its children, so the inputs never move.
struct batch_inputs {
  graph g;
  std::unique_ptr<protocol> proto;
  radiocast::fault::recovery_model recovery;
  radiocast::fault::loss_model loss;
  radiocast::fault::composite_fault_model faults;

  batch_inputs(graph topology, int d)
      : g(std::move(topology)),
        proto(radiocast::make_protocol("kp", g.node_count() - 1, d)),
        recovery(recovery_config()),
        loss(radiocast::fault::loss_options{0.1}),
        faults({&recovery, &loss}) {}
  batch_inputs(const batch_inputs&) = delete;
  batch_inputs& operator=(const batch_inputs&) = delete;

  static radiocast::fault::recovery_options recovery_config() {
    radiocast::fault::recovery_options o;
    o.crash_probability = 1e-4;
    o.downtime = 20;
    o.mode = radiocast::fault::recovery_mode::retain;
    o.spare_source = true;
    return o;
  }
};

graph batch_graph(bool small) {
  return radiocast::make_complete_layered_uniform(
      small ? kBatchSmallN : kBatchN, small ? kBatchSmallD : kBatchD);
}

std::unique_ptr<batch_inputs> make_batch_inputs(bool small) {
  return std::make_unique<batch_inputs>(batch_graph(small),
                                        small ? kBatchSmallD : kBatchD);
}

trial_options batch_options(std::uint64_t seed, int trials) {
  trial_options o;
  o.trials = trials;
  o.base_seed = derive(seed, 5);
  o.threads = trial_threads();
  o.step_threads = 1;
  o.max_steps = 1'000'000;
  return o;
}

/// Records shard start and in-order retirement times; the fold wait of a
/// shard is (on_done − on_start) minus the trials' own wall time.
class fold_timer {
 public:
  radiocast::shard_hooks hooks() {
    radiocast::shard_hooks h;
    h.on_start = [this](const radiocast::shard_info& info) {
      const std::int64_t t = now_ns();
      const std::lock_guard<std::mutex> lock(mu_);
      started_[info.index] = t;
    };
    h.on_done = [this](const radiocast::shard_info& info,
                       const radiocast::trial_set& set) {
      const std::int64_t t = now_ns();
      std::int64_t start = 0;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        start = started_[info.index];
      }
      wait_ms_ += static_cast<double>(t - start) / 1e6 - set.total_wall_ms();
    };
    return h;
  }
  double wait_ms() const { return wait_ms_; }

 private:
  std::mutex mu_;
  std::map<int, std::int64_t> started_;  // guarded by mu_
  double wait_ms_ = 0.0;                 // calling thread only
};

void add_trial_layers(layer_sample& s, const std::vector<trial_record>& recs,
                      double batch_wall_s, int threads) {
  double busy_ms = 0.0;
  for (const trial_record& t : recs) {
    s["sim.steps"] += static_cast<double>(t.steps);
    s["sim.post_inform_steps"] += static_cast<double>(t.steps - t.informed_step);
    s["sim.transmissions"] += static_cast<double>(t.transmissions);
    s["sim.deliveries"] += static_cast<double>(t.deliveries);
    s["sim.collisions"] += static_cast<double>(t.collisions);
    s["fault.crashes"] += static_cast<double>(t.crashed_nodes);
    s["fault.recoveries"] += static_cast<double>(t.recoveries);
    s["fault.suppressed"] += static_cast<double>(t.suppressed_deliveries);
    busy_ms += t.wall_ms;
  }
  s["exec.busy_s"] = busy_ms / 1e3;
  s["exec.efficiency"] = busy_ms / 1e3 / (batch_wall_s * threads);
}

bool all_completed(const std::vector<trial_record>& recs) {
  return std::all_of(recs.begin(), recs.end(),
                     [](const trial_record& t) { return t.completed; });
}

void reference_check_batch(run_report& rep, const run_config& cfg) {
  const auto in = make_batch_inputs(true);
  trial_options o = batch_options(cfg.seed, kBatchSmallTrials);
  o.faults = &in->faults;
  radiocast::obs::metrics_registry fast_metrics;
  o.metrics = &fast_metrics;
  const auto fast = radiocast::parallel_run_trials(in->g, *in->proto, o);
  radiocast::obs::metrics_registry oracle_metrics;
  o.metrics = &oracle_metrics;
  o.engine = step_engine::reference;
  const auto oracle = radiocast::parallel_run_trials(in->g, *in->proto, o);
  rep.attempt(pins_of(fast.trials) == pins_of(oracle.trials),
              "small batch differs from step_engine::reference");
  rep.attempt(fast_metrics.to_json() == oracle_metrics.to_json(),
              "small batch metrics differ from step_engine::reference");
}

void run_trial_batch(const run_config& cfg, run_report& rep, span_log& spans) {
  std::unique_ptr<batch_inputs> in;
  double build_s = 0.0;
  const auto setup = [&] {
    in.reset();
    const auto t0 = clock_type::now();
    std::optional<graph> g;
    {
      const auto span = spans.open("graph.generate");
      g.emplace(batch_graph(false));
    }
    build_s = seconds_since(t0);
    in = std::make_unique<batch_inputs>(std::move(*g), kBatchD);
  };
  std::vector<double> setups;
  time_setups(setups, setup);
  const int threads = trial_threads();

  std::optional<pins> first;
  std::optional<json_value> first_export;
  const auto check = [&](const std::vector<trial_record>& recs) {
    const pins p = pins_of(recs);
    if (!first) {
      first = p;
      rep.attempt(static_cast<int>(recs.size()) == kBatchTrials,
                  "batch returned the wrong number of trials");
      rep.attempt(all_completed(recs), "a trial timed out");
      check_pins(rep, cfg, p);
    } else {
      rep.attempt(p == *first, "repeated batch gave different records");
    }
  };
  const auto check_export = [&](const std::string& exported) {
    const auto doc = radiocast::obs::json_parse(exported);
    rep.attempt(doc.has_value(), "metrics export is not valid JSON");
    if (!doc) return;
    if (!first_export) {
      first_export = *doc;
    } else {
      rep.attempt(*doc == *first_export,
                  "repeated batch exported different metrics");
    }
  };

  std::vector<double> batch_walls;  // the batch alone, without its export
  const auto units = repeat_for(cfg.trace ? cfg.seconds / 2 : cfg.seconds, true, [&] {
    if (!cfg.trace) time_setups(setups, setup);
    radiocast::obs::metrics_registry metrics;
    trial_options o = batch_options(cfg.seed, kBatchTrials);
    o.metrics = &metrics;
    o.faults = &in->faults;
    const auto t0 = clock_type::now();
    const auto set = radiocast::parallel_run_trials(in->g, *in->proto, o);
    batch_walls.push_back(seconds_since(t0));
    const std::string exported = metrics.to_json().dump();
    unit_sample u{seconds_since(t0), 0, {}};
    for (const trial_record& t : set.trials) {
      u.steps += t.steps;
      u.trial_ms.push_back(t.wall_ms);
    }
    check(set.trials);
    check_export(exported);
    return u;
  });
  batch_walls.erase(batch_walls.begin());  // the warm-up unit's
  reference_check_batch(rep, cfg);

  if (!cfg.trace) {
    report_end_to_end(rep, setups, units);
    return;
  }

  std::vector<double> traced_walls;
  std::vector<layer_sample> samples = repeat_for(cfg.seconds / 2, false, [&] {
    radiocast::obs::metrics_registry metrics;
    radiocast::obs::span_profiler profiler;
    const auto timing = std::make_shared<fault_timing>();
    timed_fault_model faults(&in->faults, timing);
    fold_timer fold;
    trial_options o = batch_options(cfg.seed, kBatchTrials);
    o.metrics = &metrics;
    o.profiler = &profiler;
    o.faults = &faults;
    o.hooks = fold.hooks();
    const auto t0 = clock_type::now();
    radiocast::trial_set set;
    {
      const auto span = spans.open("exec.parallel_run_trials");
      set = radiocast::parallel_run_trials(in->g, *in->proto, o);
    }
    const double batch_wall = seconds_since(t0);
    const auto e0 = clock_type::now();
    std::string exported;
    {
      const auto span = spans.open("obs.export");
      exported = metrics.to_json().dump();
    }
    const double export_s = seconds_since(e0);
    traced_walls.push_back(seconds_since(t0));
    faults.flush();
    check(set.trials);
    check_export(exported);

    layer_sample s;
    add_graph_layer(s, in->g, build_s);
    add_engine_spans(s, profiler);
    add_trial_layers(s, set.trials, batch_wall, threads);
    s["fault.begin_step_ms"] = static_cast<double>(timing->begin_step_ns) / 1e6;
    s["fault.filter_ms"] = static_cast<double>(timing->filter_ns) / 1e6;
    s["fault.calls"] = static_cast<double>(timing->calls);
    s["exec.fold_wait_ms"] = fold.wait_ms();
    s["obs.export_ms"] = export_s * 1e3;
    s["obs.export_bytes"] = static_cast<double>(exported.size());
    return s;
  });

  // The same batch with metrics off (untraced), for the metrics overhead.
  trial_options off = batch_options(cfg.seed, kBatchTrials);
  off.faults = &in->faults;
  const auto t0 = clock_type::now();
  const auto off_set = radiocast::parallel_run_trials(in->g, *in->proto, off);
  const double off_wall = seconds_since(t0);
  rep.attempt(pins_of(off_set.trials) == *first,
              "metrics-off batch gave different records");

  const double overhead = median(traced_walls) / median(walls_of(units));
  const double metrics_overhead = median(batch_walls) / off_wall;
  for (layer_sample& s : samples) {
    s["trace.overhead"] = overhead;
    s["obs.metrics_overhead"] = metrics_overhead;
  }
  report_layers(rep, samples);
}

// ---------------------------------------------------- broadcast batches

/// bcast_mega and det_full time batches of `spec.trials` full broadcasts
/// spread over trial_threads() workers rather than one serial broadcast: on
/// a shared host one core's speed swings widely (one serial det_full
/// traversal varied from 1.1 s to 2.3 s within a minute on a 4-vCPU VM),
/// and a load-balanced batch averages the cores. Traced runs time single
/// serial broadcasts instead, where the per-node counts that the per-layer
/// metrics need exist.
void run_broadcasts(const run_config& cfg, run_report& rep, span_log& spans,
                    const single_spec& spec) {
  std::unique_ptr<graph> g;
  std::unique_ptr<protocol> proto;
  double build_s = 0.0;
  const auto setup = [&] {
    g.reset();
    const auto t0 = clock_type::now();
    {
      const auto span = spans.open("graph.generate");
      g = std::make_unique<graph>(spec.make_graph(false, cfg.seed));
    }
    build_s = seconds_since(t0);
    proto = spec.make_protocol(g->node_count());
  };
  std::vector<double> setups;
  time_setups(setups, setup);
  const run_options opts = spec.options(cfg.seed, step_engine::soa);

  // One serial broadcast warms up, checks what trial records cannot show,
  // and must equal trial 0 of every batch.
  const auto t0 = clock_type::now();
  const run_result one = radiocast::run_broadcast(*g, *proto, opts);
  const double one_wall = seconds_since(t0);
  check_single_result(rep, *g, one);
  reference_check_single(rep, cfg, spec);

  trial_options o;
  o.trials = spec.trials;
  o.base_seed = opts.seed;
  o.threads = trial_threads();
  o.step_threads = 1;
  o.engine = step_engine::soa;
  o.stop = opts.stop;
  o.max_steps = opts.max_steps;
  std::optional<pins> first;
  const auto batch = [&] {
    const auto b0 = clock_type::now();
    const auto set = radiocast::parallel_run_trials(*g, *proto, o);
    unit_sample u{seconds_since(b0), 0, {}};
    const pins p = pins_of(set.trials);
    if (!first) {
      first = p;
      rep.attempt(static_cast<int>(set.trials.size()) == spec.trials &&
                      all_completed(set.trials),
                  "a batch broadcast did not complete");
      const trial_record& t = set.trials.front();
      rep.attempt(t.steps == one.steps && t.informed_step == one.informed_step &&
                      t.transmissions == one.transmissions &&
                      t.collisions == one.collisions &&
                      t.deliveries == one.deliveries,
                  "trial 0 of the batch differs from the serial broadcast");
      check_pins(rep, cfg, p);
    } else {
      rep.attempt(p == *first, "repeated batch gave different records");
    }
    for (const trial_record& t : set.trials) {
      u.steps += t.steps;
      u.trial_ms.push_back(t.wall_ms);
    }
    return u;
  };

  if (!cfg.trace) {
    report_end_to_end(rep, setups, repeat_for(cfg.seconds, true, [&] {
                        time_setups(setups, setup);
                        return batch();
                      }));
    rep.detail("edge_visits_per_s",
               static_cast<double>(edge_visits(*g, one)) / one_wall);
    return;
  }

  batch();  // the batch checks and pins hold in traced runs too
  const pins serial_pins = pins_of(one);
  const std::vector<double> plain_walls =
      repeat_for(cfg.seconds / 2, false, [&] {
        const auto s0 = clock_type::now();
        const run_result r = radiocast::run_broadcast(*g, *proto, opts);
        const double wall = seconds_since(s0);
        rep.attempt(pins_of(r) == serial_pins,
                    "repeated broadcast gave different outputs");
        return wall;
      });
  std::vector<double> traced_walls;
  std::vector<layer_sample> samples = repeat_for(cfg.seconds / 2, false, [&] {
    radiocast::obs::span_profiler profiler;
    run_options traced = opts;
    traced.profiler = &profiler;
    const auto s0 = clock_type::now();
    run_result r;
    {
      const auto span = spans.open("sim.run_broadcast");
      r = radiocast::run_broadcast(*g, *proto, traced);
    }
    traced_walls.push_back(seconds_since(s0));
    rep.attempt(pins_of(r) == serial_pins,
                "traced broadcast gave different outputs");

    layer_sample s;
    add_graph_layer(s, *g, build_s);
    add_engine_spans(s, profiler);
    const std::int64_t visits = edge_visits(*g, r);
    const std::int64_t node_steps = awake_node_steps(r);
    const double loop_ns = s["sim.step_loop_ms"] * 1e6;
    s["sim.steps"] = static_cast<double>(r.steps);
    s["sim.post_inform_steps"] = static_cast<double>(r.steps - r.informed_step);
    s["sim.awake_node_steps"] = static_cast<double>(node_steps);
    s["sim.edge_visits"] = static_cast<double>(visits);
    s["sim.ns_per_node_step"] = loop_ns / static_cast<double>(node_steps);
    s["sim.ns_per_edge_visit"] = loop_ns / static_cast<double>(visits);
    s["sim.transmissions"] = static_cast<double>(r.transmissions);
    s["sim.deliveries"] = static_cast<double>(r.deliveries);
    s["sim.collisions"] = static_cast<double>(r.collisions);
    s["sim.delivery_yield"] =
        static_cast<double>(r.deliveries) / static_cast<double>(visits);
    return s;
  });
  const double overhead = median(traced_walls) / median(plain_walls);
  for (layer_sample& s : samples) s["trace.overhead"] = overhead;
  report_layers(rep, samples);
}

// --------------------------------------------------------- campaign_sweep

constexpr node_id kCampaignN = 128;
constexpr int kCampaignTrials = 4000;
constexpr int kCampaignShardSize = 100;
constexpr int kCampaignSmallTrials = 16;

radiocast::campaign::manifest sweep_manifest(std::uint64_t seed) {
  using radiocast::campaign::grid_point;
  radiocast::campaign::manifest m;
  m.name = "perfbench-sweep";
  m.base_seed = derive(seed, 6);
  m.trials_per_point = kCampaignTrials;
  m.shard_size = kCampaignShardSize;
  m.threads = trial_threads();
  m.max_steps = 1'000'000;
  grid_point layered;
  layered.family = "complete-layered";
  layered.n = kCampaignN;
  layered.d = 8;
  layered.protocol = "decay";
  grid_point gnp;
  gnp.family = "gnp";
  gnp.n = kCampaignN;
  gnp.p = 0.1;
  gnp.graph_seed = derive(seed, 7);
  gnp.protocol = "kp";
  gnp.known_d = 8;
  grid_point fat;
  fat.family = "layered-fat";
  fat.n = kCampaignN;
  fat.d = 8;
  fat.protocol = "kp-doubling";
  m.grid = {layered, gnp, fat};
  return m;
}

/// The trial records of a merged campaign document, in (point, seed) order.
std::vector<std::vector<trial_record>> records_of(const json_value& doc) {
  std::vector<std::vector<trial_record>> out;
  const json_value* cases = doc.find("cases");
  if (cases == nullptr) return out;
  for (const json_value& c : cases->items()) {
    std::vector<trial_record>& recs = out.emplace_back();
    const json_value* trials = c.find("trials");
    if (trials == nullptr) continue;
    for (const json_value& j : trials->items()) {
      const auto num = [&j](const char* key) {
        const json_value* v = j.find(key);
        return v != nullptr ? v->as_int() : std::int64_t{-1};
      };
      trial_record t;
      t.seed = static_cast<std::uint64_t>(num("seed"));
      const json_value* completed = j.find("completed");
      t.completed = completed != nullptr && completed->as_bool();
      t.steps = num("steps");
      t.informed_step = num("informed_step");
      t.transmissions = num("transmissions");
      t.collisions = num("collisions");
      t.deliveries = num("deliveries");
      t.crashed_nodes = num("crashed_nodes");
      t.suppressed_deliveries = num("suppressed_deliveries");
      t.churned_edges = num("churned_edges");
      const json_value* wall = j.find("wall_ms");
      t.wall_ms = wall != nullptr ? wall->as_double() : 0.0;
      recs.push_back(t);
    }
  }
  return out;
}

std::vector<trial_record> flatten(
    const std::vector<std::vector<trial_record>>& per_point) {
  std::vector<trial_record> all;
  for (const auto& recs : per_point) all.insert(all.end(), recs.begin(), recs.end());
  return all;
}

std::uint64_t doc_digest(const json_value& merged) {
  const json_value stripped = radiocast::campaign::strip_wall_clock_keys(merged);
  const json_value* cases = stripped.find("cases");
  digest d;
  d.add(cases != nullptr ? cases->dump() : std::string());
  return d.value();
}

std::int64_t tree_bytes(const fs::path& dir) {
  std::int64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += static_cast<std::int64_t>(e.file_size());
  }
  return bytes;
}

/// trial_options of one grid point, exactly as the campaign runs it.
trial_options point_options(const radiocast::campaign::manifest& m,
                            int trials) {
  trial_options o;
  o.trials = trials;
  o.base_seed = m.base_seed;
  o.threads = m.threads;
  o.shard_size = m.shard_size;
  o.max_steps = m.max_steps;
  o.step_threads = 1;
  return o;
}

void reference_check_campaign(
    run_report& rep, const radiocast::campaign::manifest& m,
    const std::vector<std::vector<trial_record>>& merged) {
  for (std::size_t i = 0; i < m.grid.size(); ++i) {
    const graph g = radiocast::campaign::build_graph(m.grid[i]);
    const auto proto = radiocast::campaign::build_protocol(m.grid[i]);
    trial_options o = point_options(m, kCampaignSmallTrials);
    o.engine = step_engine::reference;
    const auto oracle = radiocast::parallel_run_trials(g, *proto, o);
    const bool ok =
        i < merged.size() &&
        merged[i].size() >= static_cast<std::size_t>(kCampaignSmallTrials) &&
        pins_of(std::vector<trial_record>(
            merged[i].begin(), merged[i].begin() + kCampaignSmallTrials)) ==
            pins_of(oracle.trials);
    rep.attempt(ok, "campaign records differ from step_engine::reference at " +
                        m.grid[i].case_name());
  }
}

void run_campaign_sweep(const run_config& cfg, run_report& rep,
                        span_log& spans) {
  RC_REQUIRE_MSG(!cfg.work_dir.empty(), "campaign_sweep needs --work-dir");
  const fs::path root = fs::path(cfg.work_dir) / "campaign";
  const fs::path out_dir = root / "out";
  const fs::path manifest_path = root / "manifest.json";
  radiocast::campaign::manifest m;
  // Set-up writes the manifest, loads it back the way the campaign CLI
  // does, and clears the output directory.
  const auto setup = [&] {
    fs::remove_all(root);
    fs::create_directories(out_dir);
    {
      std::ofstream(manifest_path) << sweep_manifest(cfg.seed).to_json().dump(2);
    }
    std::string error;
    auto loaded = radiocast::campaign::load_manifest(manifest_path.string(), &error);
    RC_CHECK_MSG(loaded.has_value(), "manifest does not load: " + error);
    m = std::move(*loaded);
  };
  std::vector<double> setups;
  time_setups(setups, setup);

  std::optional<pins> first;
  std::optional<std::uint64_t> first_doc;
  std::vector<std::vector<trial_record>> first_records;
  radiocast::campaign::campaign_options copts;
  copts.out_dir = out_dir.string();
  copts.fresh = true;

  struct campaign_unit {
    double run_s = 0.0;
    double merge_s = 0.0;
    std::vector<std::vector<trial_record>> records;
    std::int64_t shards = 0;
    std::int64_t bytes_written = 0;
    std::int64_t checkpoint_bytes = 0;
  };
  // One unit: the campaign run plus its merge, with every output checked.
  const auto unit = [&]() {
    campaign_unit u;
    const auto t0 = clock_type::now();
    radiocast::campaign::campaign_result result;
    {
      const auto span = spans.open("campaign.run");
      result = radiocast::campaign::run_campaign(m, copts);
    }
    u.run_s = seconds_since(t0);
    if (cfg.trace) {
      u.bytes_written = tree_bytes(out_dir);
      u.checkpoint_bytes =
          static_cast<std::int64_t>(fs::file_size(out_dir / "checkpoint.json"));
    }
    const auto t1 = clock_type::now();
    std::string error;
    std::optional<json_value> merged;
    {
      const auto span = spans.open("campaign.merge");
      merged = radiocast::campaign::merge_campaign(m, copts.out_dir, &error);
    }
    u.merge_s = seconds_since(t1);
    u.shards = result.total_shards;
    rep.attempt(result.ok && result.finished &&
                    result.executed == result.total_shards,
                "campaign did not finish: " + result.error);
    rep.attempt(merged.has_value(), "campaign merge failed: " + error);
    if (!merged) return u;
    u.records = records_of(*merged);
    const std::vector<trial_record> all = flatten(u.records);
    const pins p = pins_of(all);
    const std::uint64_t doc = doc_digest(*merged);
    if (!first) {
      first = p;
      first_doc = doc;
      first_records = u.records;
      rep.attempt(all.size() == m.grid.size() *
                                    static_cast<std::size_t>(kCampaignTrials),
                  "merged document has the wrong number of trials");
      rep.attempt(all_completed(all), "a campaign trial timed out");
      check_pins(rep, cfg, p);
      rep.detail("doc_digest", std::to_string(doc));
      if (cfg.seed == kDefaultSeed) {
        rep.attempt(doc == kCampaignDocDigest,
                    "merged document differs from the default-seed pin");
      }
    } else {
      rep.attempt(p == *first && doc == *first_doc,
                  "repeated campaign gave a different merged document");
    }
    return u;
  };

  const auto units = repeat_for(cfg.trace ? cfg.seconds / 2 : cfg.seconds, true, [&] {
    if (!cfg.trace) time_setups(setups, setup);
    const campaign_unit u = unit();
    unit_sample s{u.run_s + u.merge_s, 0, {}};
    for (const auto& recs : u.records) {
      for (const trial_record& t : recs) {
        s.steps += t.steps;
        s.trial_ms.push_back(t.wall_ms);
      }
    }
    return s;
  });
  reference_check_campaign(rep, m, first_records);

  if (!cfg.trace) {
    report_end_to_end(rep, setups, units);
    return;
  }

  std::vector<double> traced_walls;
  std::vector<double> run_walls;
  std::vector<layer_sample> samples = repeat_for(cfg.seconds / 2, false, [&] {
    const campaign_unit u = unit();
    traced_walls.push_back(u.run_s + u.merge_s);
    run_walls.push_back(u.run_s);
    layer_sample s;
    s["campaign.run_s"] = u.run_s;
    s["campaign.merge_s"] = u.merge_s;
    s["campaign.shards"] = static_cast<double>(u.shards);
    s["campaign.bytes_written"] = static_cast<double>(u.bytes_written);
    s["campaign.checkpoint_bytes"] = static_cast<double>(u.checkpoint_bytes);
    return s;
  });

  // The same grid through parallel_run_trials, without artifacts: how much
  // of the campaign's run time is simulation rather than I/O.
  layer_sample sim;
  radiocast::obs::span_profiler profiler;
  fold_timer fold;
  std::vector<trial_record> sim_records;
  double sim_wall = 0.0;
  for (const auto& point : m.grid) {
    const auto g0 = clock_type::now();
    std::optional<graph> g;
    {
      const auto span = spans.open("graph.generate");
      g.emplace(radiocast::campaign::build_graph(point));
    }
    add_graph_layer(sim, *g, seconds_since(g0));
    const auto proto = radiocast::campaign::build_protocol(point);
    trial_options o = point_options(m, m.trials_per_point);
    o.profiler = &profiler;
    o.hooks = fold.hooks();
    const auto t0 = clock_type::now();
    radiocast::trial_set set;
    {
      const auto span = spans.open("exec.parallel_run_trials");
      set = radiocast::parallel_run_trials(*g, *proto, o);
    }
    sim_wall += seconds_since(t0);
    sim_records.insert(sim_records.end(), set.trials.begin(), set.trials.end());
  }
  rep.attempt(pins_of(sim_records) == *first,
              "grid through parallel_run_trials differs from the campaign");
  add_engine_spans(sim, profiler);
  add_trial_layers(sim, sim_records, sim_wall, m.threads);
  sim["exec.fold_wait_ms"] = fold.wait_ms();
  const double overhead = median(traced_walls) / median(walls_of(units));
  for (layer_sample& s : samples) {
    for (const auto& [k, v] : sim) s[k] = v;
    s["campaign.sim_share"] = sim_wall / median(run_walls);
    s["trace.overhead"] = overhead;
  }
  report_layers(rep, samples);
  fs::remove_all(root);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"bcast_mega", "det_full",
                                                  "trial_batch",
                                                  "campaign_sweep"};
  return kNames;
}

void run_workload(const run_config& cfg, run_report& rep, span_log& spans) {
  if (cfg.workload == "bcast_mega") {
    run_broadcasts(cfg, rep, spans, bcast_mega_spec());
  } else if (cfg.workload == "det_full") {
    run_broadcasts(cfg, rep, spans, det_full_spec());
  } else if (cfg.workload == "trial_batch") {
    run_trial_batch(cfg, rep, spans);
  } else if (cfg.workload == "campaign_sweep") {
    run_campaign_sweep(cfg, rep, spans);
  } else {
    throw std::invalid_argument("unknown workload: " + cfg.workload);
  }
}

json_value derive_pins(const std::string& workload,
                       const std::string& work_dir) {
  json_value out = json_value::object();
  if (workload == "bcast_mega" || workload == "det_full") {
    const single_spec spec =
        workload == "bcast_mega" ? bcast_mega_spec() : det_full_spec();
    const graph g = spec.make_graph(false, kDefaultSeed);
    const auto proto = spec.make_protocol(g.node_count());
    const run_options ro = spec.options(kDefaultSeed, step_engine::reference);
    trial_options o;
    o.trials = spec.trials;
    o.base_seed = ro.seed;
    o.threads = trial_threads();
    o.engine = step_engine::reference;
    o.stop = ro.stop;
    o.max_steps = ro.max_steps;
    out.set("pins",
            pins_of(radiocast::parallel_run_trials(g, *proto, o).trials)
                .to_json());
  } else if (workload == "trial_batch") {
    const auto in = make_batch_inputs(false);
    trial_options o = batch_options(kDefaultSeed, kBatchTrials);
    o.faults = &in->faults;
    o.engine = step_engine::reference;
    out.set("pins", pins_of(radiocast::parallel_run_trials(in->g, *in->proto, o)
                                .trials)
                        .to_json());
  } else if (workload == "campaign_sweep") {
    const radiocast::campaign::manifest m = sweep_manifest(kDefaultSeed);
    std::vector<trial_record> oracle;
    for (const auto& point : m.grid) {
      const graph g = radiocast::campaign::build_graph(point);
      const auto proto = radiocast::campaign::build_protocol(point);
      trial_options o = point_options(m, m.trials_per_point);
      o.engine = step_engine::reference;
      const auto set = radiocast::parallel_run_trials(g, *proto, o);
      oracle.insert(oracle.end(), set.trials.begin(), set.trials.end());
    }
    // The document pin comes from a real campaign, accepted only when its
    // records match the oracle's.
    radiocast::campaign::campaign_options copts;
    copts.out_dir = (fs::path(work_dir) / "pins").string();
    copts.fresh = true;
    const auto result = radiocast::campaign::run_campaign(m, copts);
    RC_CHECK_MSG(result.ok, "campaign failed: " + result.error);
    const auto merged = radiocast::campaign::merge_campaign(m, copts.out_dir);
    RC_CHECK_MSG(merged.has_value(), "campaign merge failed");
    RC_CHECK_MSG(pins_of(flatten(records_of(*merged))) == pins_of(oracle),
                 "campaign records differ from step_engine::reference");
    out.set("pins", pins_of(oracle).to_json());
    out.set("doc_digest", std::to_string(doc_digest(*merged)));
    fs::remove_all(copts.out_dir);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return out;
}

}  // namespace perfbench
