// Wall-clock microbenchmarks (google-benchmark) for the simulator itself —
// not a paper experiment, but the substrate-cost baseline that tells you
// how far the step-count experiments can be scaled.
//
// Also the guard for the observability contract: the step loop must cost
// the same with metrics DISABLED (null registry — the default for every
// experiment) as it did before instrumentation existed. The main() below
// measures the disabled path against the fully-enabled path and asserts
// the disabled path is not slower (within a noise margin): if the null
// checks ever stop being free, this bench fails.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "campaign/artifact.h"
#include "core/runner.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/ndjson.h"
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/stats.h"

namespace radiocast {
namespace {

void bm_decay_layered(benchmark::State& state) {
  const auto n = static_cast<node_id>(state.range(0));
  graph g = make_complete_layered_uniform(n, 16);
  const auto proto = make_protocol("decay", n - 1);
  std::uint64_t seed = 1;
  std::int64_t steps = 0;
  for (auto _ : state) {
    run_options opts;
    opts.seed = seed++;
    const run_result r = run_broadcast(g, *proto, opts);
    benchmark::DoNotOptimize(r.informed_step);
    steps += r.steps;
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_decay_layered)->Arg(256)->Arg(1024)->Arg(4096);

void bm_kp_layered(benchmark::State& state) {
  const auto n = static_cast<node_id>(state.range(0));
  graph g = make_complete_layered_uniform(n, n / 8);
  const auto proto = make_protocol("kp", n - 1, n / 8);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    run_options opts;
    opts.seed = seed++;
    const run_result r = run_broadcast(g, *proto, opts);
    benchmark::DoNotOptimize(r.informed_step);
  }
}
BENCHMARK(bm_kp_layered)->Arg(256)->Arg(1024)->Arg(4096);

void bm_select_and_send_tree(benchmark::State& state) {
  const auto n = static_cast<node_id>(state.range(0));
  rng gen(5);
  graph g = make_random_tree(n, gen);
  const auto proto = make_protocol("select-and-send", n - 1);
  for (auto _ : state) {
    run_options opts;
    opts.max_steps = 100'000'000;
    opts.stop = stop_condition::all_halted;
    const run_result r = run_broadcast(g, *proto, opts);
    benchmark::DoNotOptimize(r.steps);
  }
}
BENCHMARK(bm_select_and_send_tree)->Arg(256)->Arg(1024);

void bm_graph_generation(benchmark::State& state) {
  const auto n = static_cast<node_id>(state.range(0));
  for (auto _ : state) {
    graph g = make_complete_layered_uniform(n, 16);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(bm_graph_generation)->Arg(1024)->Arg(4096);

// --------------------------------------------------------------------------
// Metrics-overhead guard.
// --------------------------------------------------------------------------

// Wall-clock of one seeded run, with or without a metrics registry.
double wall_ms(const graph& g, const protocol& proto,
               obs::metrics_registry* metrics) {
  if (metrics != nullptr) metrics->clear();
  run_options opts;
  opts.seed = 42;  // same seed: identical work in both configurations
  opts.metrics = metrics;
  const auto start = std::chrono::steady_clock::now();
  const run_result r = run_broadcast(g, proto, opts);
  const double ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();
  RC_CHECK(r.completed);
  return ms;
}

void check_metrics_overhead(bench::reporter& rep) {
  const node_id n = bench::smoke() ? 512 : 2048;
  const int reps = bench::smoke() ? 15 : 21;
  graph g = make_complete_layered_uniform(n, 16);
  const auto proto = make_protocol("decay", n - 1);
  // Warm up caches/allocator so neither configuration pays first-run costs.
  wall_ms(g, *proto, nullptr);

  // Median over reps, with the two configurations alternating so that both
  // see the same host conditions: with metrics nearly free, a burst of host
  // noise landing on one configuration's block would decide either guard.
  // A smoke run takes about a millisecond, so a minimum over a few reps is
  // one lucky sample; the median of many is steady.
  obs::metrics_registry metrics;
  std::vector<double> off_samples;
  std::vector<double> on_samples;
  for (int r = 0; r < reps; ++r) {
    off_samples.push_back(wall_ms(g, *proto, nullptr));
    on_samples.push_back(wall_ms(g, *proto, &metrics));
  }
  const double off_ms = summarize(std::move(off_samples)).median;
  const double on_ms = summarize(std::move(on_samples)).median;
  const double ratio = off_ms / on_ms;

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("reps", reps);
  values.set("metrics_off_median_ms", off_ms);
  values.set("metrics_on_median_ms", on_ms);
  values.set("off_over_on", ratio);
  rep.add_analytic_case("metrics_overhead/decay/n=" + std::to_string(n),
                        bench::params("n", n, "protocol", "decay"),
                        std::move(values), off_ms + on_ms);

  std::cout << "metrics overhead guard: off=" << off_ms << "ms on=" << on_ms
            << "ms (off/on=" << ratio << ")\n";
  // The disabled path must not be slower than the enabled one beyond
  // scheduling noise — i.e. null-registry instrumentation is free. The
  // margin is generous (25% + 0.5ms) because the runs are short.
  RC_CHECK_MSG(off_ms <= on_ms * 1.25 + 0.5,
               "metrics-disabled step loop measurably slower than "
               "metrics-enabled: the null-check fast path has regressed");
  // Metrics must be cheap enough to leave on: off/on ≥ 0.9, with the same
  // 0.5ms slack for short runs. Protocol instrumentation that goes back to
  // string-keyed lookups per transmit lands near 0.6.
  RC_CHECK_MSG(on_ms <= off_ms / 0.9 + 0.5,
               "metrics-enabled step loop more than 1/0.9 slower than "
               "metrics-disabled: protocol metric sites must use "
               "obs::metric_key handles, not string-keyed lookups");
}

// --------------------------------------------------------------------------
// Parallel trial-throughput measurement.
// --------------------------------------------------------------------------

// Times the same seeded trial batch serially and sharded over 4 workers,
// checks the shards are bit-identical to the serial records, and reports
// the trial-throughput speedup in the telemetry. The speedup is a
// MEASUREMENT, not an assertion: on a multi-core host it should reach ≥2×
// at 4 threads; on a single-core host (hardware_threads() == 1) the best
// possible value is ~1×, so the artifact records hardware_threads
// alongside it for interpretation.
void check_parallel_speedup(bench::reporter& rep) {
  const node_id n = bench::smoke() ? 256 : 1024;
  const int trials = bench::smoke() ? 8 : 48;
  const int par_threads = 4;
  graph g = make_complete_layered_uniform(n, 16);
  const auto proto = make_protocol("decay", n - 1);

  auto timed = [&](int threads, trial_set* out) {
    trial_options topts;
    topts.trials = trials;
    topts.base_seed = 7;
    topts.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    *out = parallel_run_trials(g, *proto, topts);
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  trial_set warmup;
  timed(par_threads, &warmup);  // touch caches, spawn-thread warm-up

  trial_set serial, parallel;
  const double serial_ms = timed(1, &serial);
  const double parallel_ms = timed(par_threads, &parallel);

  // The determinism contract, enforced where the speedup is measured.
  RC_CHECK(serial.trials.size() == parallel.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    const trial_record& a = serial.trials[i];
    const trial_record& b = parallel.trials[i];
    RC_CHECK_MSG(a.seed == b.seed && a.completed == b.completed &&
                     a.steps == b.steps && a.informed_step == b.informed_step &&
                     a.transmissions == b.transmissions &&
                     a.collisions == b.collisions &&
                     a.deliveries == b.deliveries,
                 "parallel trial records diverged from serial ones");
  }

  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 1.0;
  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("trials", trials);
  values.set("threads", par_threads);
  values.set("hardware_threads", exec::hardware_threads());
  values.set("serial_wall_ms", serial_ms);
  values.set("parallel_wall_ms", parallel_ms);
  values.set("speedup", speedup);
  rep.add_analytic_case(
      "parallel_trials/decay/n=" + std::to_string(n),
      bench::params("n", n, "protocol", "decay", "threads", par_threads),
      std::move(values), serial_ms + parallel_ms);

  std::cout << "parallel trial throughput: serial=" << serial_ms
            << "ms threads=" << par_threads << " parallel=" << parallel_ms
            << "ms (speedup=" << speedup
            << "x, hardware threads=" << exec::hardware_threads() << ")\n";
}

// --------------------------------------------------------------------------
// Awake-set speedup measurement.
// --------------------------------------------------------------------------

// Minimum wall-clock over reps and step count of the same seeded run under
// a given engine.
struct engine_timing {
  double min_ms = 1e300;
  std::int64_t steps = 0;
  run_result result;
};

engine_timing time_engine(const graph& g, const protocol& proto, int reps,
                          step_engine engine) {
  engine_timing out;
  for (int rep = 0; rep < reps; ++rep) {
    run_options opts;
    opts.seed = 42;  // same seed: both engines do identical protocol work
    opts.max_steps = 10'000'000;
    opts.engine = engine;
    const auto start = std::chrono::steady_clock::now();
    run_result r = run_broadcast(g, proto, opts);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    RC_CHECK(r.completed);
    out.steps = r.steps;
    // radiocast-analyze: allow(taint) -- min-of-reps selection between
    // bit-identical runs (same seed, RC_CHECKed completed); timing picks
    // which copy to keep, never what it contains.
    if (ms < out.min_ms) {
      out.min_ms = ms;
      out.result = std::move(r);
    }
  }
  return out;
}

// Phase-2 work of a run: Σ_v transmissions_per_node[v] × out_degree(v),
// the (transmitter, listener) pairs the reception scan visits.
std::int64_t edge_visits(const graph& g, const run_result& r) {
  std::int64_t visits = 0;
  for (node_id v = 0; v < g.node_count(); ++v) {
    visits += r.transmissions_per_node[static_cast<std::size_t>(v)] *
              g.out_degree(v);
  }
  return visits;
}

// Records `<prefix>edge_visits` and `<prefix>ns_per_edge_visit` — the
// run's wall-clock (setup included) over its edge visits — and returns the
// latter.
double set_edge_cost(obs::json_value& values, const std::string& prefix,
                     const graph& g, const run_result& r, double ms) {
  const std::int64_t visits = edge_visits(g, r);
  const double ns =
      visits > 0 ? ms * 1e6 / static_cast<double>(visits) : 0.0;
  values.set(prefix + "edge_visits", visits);
  values.set(prefix + "ns_per_edge_visit", ns);
  return ns;
}

// Times the reference engine (phase 1 over all n nodes) against the soa
// engine's awake-set walk (phase 1 over the awake set) on a topology
// built to keep the awake set small for most of the run: a thin chain of
// d − 1 single-node layers with all the slack in the LAST layer, so the
// informed frontier stays ≤ a handful of nodes until the wave reaches the
// fat layer. Checks the two engines produce bit-identical results where
// the speedup is measured, and asserts the walk actually wins. Both legs
// run through virtual_view, i.e. per-node traits_node objects behind
// virtual calls, so the ratio measures the awake-set skip under virtual
// dispatch. The case keeps its historical name and `frontier_*` keys (the
// walk was once a separate frontier engine), so baselines compare like
// for like.
void check_frontier_speedup(bench::reporter& rep) {
  const node_id n = bench::smoke() ? 2048 : 16384;
  const int d = bench::smoke() ? 128 : 512;
  const int reps = bench::smoke() ? 3 : 5;
  // Fat layer last: awake-set size stays O(1) for d − 1 of the d hops.
  graph g = make_complete_layered_fat(n, d, /*fat_index=*/d);
  const auto proto = make_protocol("decay", n - 1);
  const virtual_view virt(*proto);

  // Warm-up, then min-of-reps per engine.
  time_engine(g, virt, 1, step_engine::soa);
  const engine_timing ref = time_engine(g, virt, reps,
                                        step_engine::reference);
  const engine_timing poll = time_engine(g, virt, reps, step_engine::soa);

  // Bit-identity enforced where the speedup is measured.
  RC_CHECK_MSG(ref.result.steps == poll.result.steps &&
                   ref.result.informed_step == poll.result.informed_step &&
                   ref.result.transmissions == poll.result.transmissions &&
                   ref.result.collisions == poll.result.collisions &&
                   ref.result.deliveries == poll.result.deliveries &&
                   ref.result.informed_at == poll.result.informed_at,
               "awake-set walk diverged from the reference engine");

  const double steps_per_sec_ref =
      static_cast<double>(ref.steps) / (ref.min_ms / 1000.0);
  const double steps_per_sec_poll =
      static_cast<double>(poll.steps) / (poll.min_ms / 1000.0);
  const double speedup = poll.min_ms > 0.0 ? ref.min_ms / poll.min_ms : 1.0;

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("d", d);
  values.set("reps", reps);
  values.set("steps", poll.steps);
  values.set("reference_min_ms", ref.min_ms);
  values.set("frontier_min_ms", poll.min_ms);
  values.set("steps_per_sec_reference", steps_per_sec_ref);
  values.set("steps_per_sec_frontier", steps_per_sec_poll);
  values.set("speedup", speedup);
  rep.add_analytic_case(
      "frontier_speedup/decay/layered_fat/n=" + std::to_string(n) +
          "/d=" + std::to_string(d),
      bench::params("n", n, "protocol", "decay", "d", d),
      std::move(values), ref.min_ms + poll.min_ms);

  std::cout << "awake-set speedup: reference=" << ref.min_ms
            << "ms awake-walk=" << poll.min_ms << "ms over " << poll.steps
            << " steps (speedup=" << speedup << "x, "
            << steps_per_sec_poll << " steps/s)\n";
  // The awake-set walk must actually be faster on its home turf — a
  // large deep network where awake ≪ n for most steps. The acceptance
  // target is ≥3×; the hard floor here is >1× so noisy CI hosts don't
  // flake, with the measured ratio recorded in the artifact.
  RC_CHECK_MSG(speedup > 1.0,
               "awake-set walk not faster than the reference engine on a "
               "large-D layered network: the awake-set skip has regressed");
}

// --------------------------------------------------------------------------
// Mega-scale SoA measurement.
// --------------------------------------------------------------------------

// The opposite regime from check_frontier_speedup: a fat-FIRST layered
// network (all slack in layer 1) keeps essentially every node awake from
// step 2 on, so the awake-set skip buys nothing and the SoA layout's
// remaining levers — contiguous state, devirtualized step loop — are what
// get measured (the `frontier` leg is the same soa walk through
// virtual_view: per-node traits_node objects behind virtual calls). Also
// drives the engine's namesake workload: a (smoke-scaled) million-node
// layered and sparse-G(n, p) completion run each, recorded as wall clock +
// exact step counts.
void check_mega_scale(bench::reporter& rep) {
  const node_id n = bench::smoke() ? (1 << 14) : (1 << 18);
  const int d = 64;
  const int reps = bench::smoke() ? 3 : 5;
  graph g = make_complete_layered_fat(n, d, /*fat_index=*/1);
  const auto proto = make_protocol("decay", n - 1);
  const virtual_view virt(*proto);

  time_engine(g, *proto, 1, step_engine::soa);  // warm-up
  const engine_timing poll = time_engine(g, virt, reps, step_engine::soa);
  const engine_timing soa = time_engine(g, *proto, reps, step_engine::soa);

  // Bit-identity enforced where the speedup is measured.
  RC_CHECK_MSG(soa.result.steps == poll.result.steps &&
                   soa.result.informed_step == poll.result.informed_step &&
                   soa.result.transmissions == poll.result.transmissions &&
                   soa.result.collisions == poll.result.collisions &&
                   soa.result.deliveries == poll.result.deliveries &&
                   soa.result.informed_at == poll.result.informed_at,
               "soa traits diverged from the virtual_view walk");

  const double steps_per_sec_poll =
      static_cast<double>(poll.steps) / (poll.min_ms / 1000.0);
  const double steps_per_sec_soa =
      static_cast<double>(soa.steps) / (soa.min_ms / 1000.0);
  const double soa_speedup = soa.min_ms > 0.0 ? poll.min_ms / soa.min_ms : 1.0;

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("d", d);
  values.set("reps", reps);
  values.set("steps", soa.steps);
  values.set("frontier_min_ms", poll.min_ms);
  values.set("soa_min_ms", soa.min_ms);
  values.set("steps_per_sec_frontier", steps_per_sec_poll);
  values.set("steps_per_sec_soa", steps_per_sec_soa);
  values.set("soa_speedup", soa_speedup);
  set_edge_cost(values, "", g, soa.result, soa.min_ms);

  // Million-node completion runs (soa traits only: the virtual and
  // reference legs take minutes at this size). Smoke shrinks n so CI stays in seconds.
  const node_id mega = bench::smoke() ? (1 << 17) : 1'000'000;
  double mega_wall = 0.0;
  {
    graph mg = make_complete_layered_fat(mega, d, /*fat_index=*/1);
    const auto mproto = make_protocol("decay", mega - 1);
    run_options opts;
    opts.seed = 42;
    opts.max_steps = 10'000'000;
    opts.engine = step_engine::soa;
    const auto start = std::chrono::steady_clock::now();
    const run_result r = run_broadcast(mg, *mproto, opts);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    RC_CHECK_MSG(r.completed, "mega-scale layered broadcast did not complete");
    values.set("mega_n", mega);
    values.set("mega_layered_wall_ms", ms);
    values.set("mega_layered_steps", r.steps);
    set_edge_cost(values, "mega_layered_", mg, r, ms);
    mega_wall += ms;
    std::cout << "mega scale: layered n=" << mega << " completed in "
              << r.steps << " steps, " << ms << "ms (soa)\n";
  }
  {
    rng gen(9);
    graph mg = make_gnp_sparse_connected(mega, 6.0 / mega, gen);
    const auto mproto = make_protocol("decay", mega - 1);
    run_options opts;
    opts.seed = 43;
    opts.max_steps = 10'000'000;
    opts.engine = step_engine::soa;
    const auto start = std::chrono::steady_clock::now();
    const run_result r = run_broadcast(mg, *mproto, opts);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    RC_CHECK_MSG(r.completed, "mega-scale G(n,p) broadcast did not complete");
    values.set("mega_gnp_wall_ms", ms);
    values.set("mega_gnp_steps", r.steps);
    set_edge_cost(values, "mega_gnp_", mg, r, ms);
    mega_wall += ms;
    std::cout << "mega scale: sparse gnp n=" << mega << " completed in "
              << r.steps << " steps, " << ms << "ms (soa)\n";
  }

  rep.add_analytic_case(
      "mega_scale/decay/layered_fat_first/n=" + std::to_string(n) +
          "/d=" + std::to_string(d),
      bench::params("n", n, "protocol", "decay", "d", d),
      std::move(values), poll.min_ms + soa.min_ms + mega_wall);

  std::cout << "soa engine speedup: virtual walk=" << poll.min_ms
            << "ms soa=" << soa.min_ms << "ms over " << soa.steps
            << " steps (soa_speedup=" << soa_speedup << "x, "
            << steps_per_sec_soa << " steps/s)\n";
  // The acceptance target for the SoA layout + devirtualized loop at
  // n = 2^18 is large (≥10× node-steps/s on a dense-awake network); the
  // hard floor here is >1× so noisy or single-core CI hosts don't flake,
  // with the measured ratio recorded in the artifact for the regress gate.
  RC_CHECK_MSG(soa_speedup > 1.0,
               "soa traits not faster than the virtual_view walk on a "
               "dense-awake layered network: the SoA step loop has "
               "regressed");
}

// Decay on a sparse G(n, p) at n = 2^18, p = 8/n, on the serial soa
// engine: the shape of perfbench's bcast_mega, one broadcast at a time.
// Few transmitters per step, each reaching listeners scattered over the
// whole node range, so phase 2 (the reception scan) and the commit are
// most of the step; `ns_per_edge_visit` is the number to watch.
void check_gnp_scale(bench::reporter& rep) {
  const node_id n = bench::smoke() ? (1 << 14) : (1 << 18);
  const int reps = bench::smoke() ? 3 : 5;
  const double p = 8.0 / n;
  rng gen(11);
  const graph g = make_gnp_sparse_connected(n, p, gen);
  const auto proto = make_protocol("decay", n - 1);

  time_engine(g, *proto, 1, step_engine::soa);  // warm-up
  const engine_timing soa = time_engine(g, *proto, reps, step_engine::soa);
  const double steps_per_sec_soa =
      static_cast<double>(soa.steps) / (soa.min_ms / 1000.0);

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("p", p);
  values.set("reps", reps);
  values.set("steps", soa.steps);
  values.set("transmissions", soa.result.transmissions);
  values.set("soa_min_ms", soa.min_ms);
  values.set("steps_per_sec_soa", steps_per_sec_soa);
  const double ns_per_edge_visit =
      set_edge_cost(values, "", g, soa.result, soa.min_ms);
  rep.add_analytic_case("gnp_scale/decay/gnp_sparse/n=" + std::to_string(n),
                        bench::params("n", n, "protocol", "decay"),
                        std::move(values), soa.min_ms);

  std::cout << "gnp scale: decay n=" << n << " soa=" << soa.min_ms
            << "ms over " << soa.steps << " steps (" << steps_per_sec_soa
            << " steps/s, " << ns_per_edge_visit << " ns/edge visit)\n";
}

// Graph construction alone: the set-up every trial set, bench and campaign
// point pays before its first step. A sparse G(n, p) at n = 2^18, p = 8/n
// (draws, edge buffer, union-find bridging, finalize) and perfbench
// det_full's complete layered C(1536, 16). `build_ms` is the minimum over
// reps of a fresh build; `ns_per_edge` divides it by the finalized edge
// count.
void check_graph_build(bench::reporter& rep) {
  const int reps = bench::smoke() ? 3 : 5;
  const auto record = [&rep, reps](const std::string& name,
                                   obs::json_value params, auto&& make) {
    double build_ms = 0.0;
    std::size_t edges = 0;
    for (int i = 0; i < reps; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const graph g = make();
      const double ms = std::chrono::duration_cast<
                            std::chrono::duration<double, std::milli>>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      build_ms = i == 0 ? ms : std::min(build_ms, ms);
      edges = g.edge_count();
    }
    const double ns_per_edge =
        build_ms * 1e6 / static_cast<double>(std::max<std::size_t>(edges, 1));
    obs::json_value values = obs::json_value::object();
    values.set("reps", reps);
    values.set("build_ms", build_ms);
    values.set("edges", static_cast<std::int64_t>(edges));
    values.set("ns_per_edge", ns_per_edge);
    rep.add_analytic_case(name, std::move(params), std::move(values),
                          build_ms);
    std::cout << "graph build: " << name << " " << build_ms << "ms for "
              << edges << " edges (" << ns_per_edge << " ns/edge)\n";
  };

  const node_id n = bench::smoke() ? (1 << 14) : (1 << 18);
  record("graph_build/gnp_sparse/n=" + std::to_string(n),
         bench::params("n", n, "family", "gnp_sparse"), [n] {
           rng gen(11);
           return make_gnp_sparse_connected(n, 8.0 / n, gen);
         });
  const node_id layered_n = 1536;
  const int layered_d = 16;
  record("graph_build/complete_layered/n=" + std::to_string(layered_n) +
             "/d=" + std::to_string(layered_d),
         bench::params("n", layered_n, "d", layered_d, "family",
                       "complete_layered"),
         [=] { return make_complete_layered_uniform(layered_n, layered_d); });
}

// The JSON codec on the two documents the trial and campaign layers move:
// a metrics export of 10 per-step series (83 561 steps, one perfbench
// trial_batch export) and 12 000 trial-record NDJSON lines (a campaign
// shard set). `dump_ms` builds and writes the text, `parse_ms` reads it
// back (json_parse, ndjson_reader), each the minimum over reps; `mb_per_s`
// is the text's size over their sum, and `value_bytes` is
// sizeof(json_value). Not gated.
void check_json_codec(bench::reporter& rep) {
  const int reps = bench::smoke() ? 3 : 5;
  const auto elapsed_ms = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto record = [&](const std::string& name, obs::json_value params,
                          auto&& dump, auto&& parse) {
    double dump_ms = 0.0;
    double parse_ms = 0.0;
    std::size_t bytes = 0;
    for (int i = 0; i < reps; ++i) {
      auto start = std::chrono::steady_clock::now();
      const std::string text = dump();
      const double d_ms = elapsed_ms(start);
      start = std::chrono::steady_clock::now();
      RC_CHECK_MSG(parse(text), "json_codec: " + name + " did not parse");
      const double p_ms = elapsed_ms(start);
      dump_ms = i == 0 ? d_ms : std::min(dump_ms, d_ms);
      parse_ms = i == 0 ? p_ms : std::min(parse_ms, p_ms);
      bytes = text.size();
    }
    const double mb_per_s =
        static_cast<double>(bytes) / 1e3 / std::max(dump_ms + parse_ms, 1e-9);
    obs::json_value values = obs::json_value::object();
    values.set("reps", reps);
    values.set("bytes", bytes);
    values.set("dump_ms", dump_ms);
    values.set("parse_ms", parse_ms);
    values.set("mb_per_s", mb_per_s);
    values.set("value_bytes", sizeof(obs::json_value));
    rep.add_analytic_case(name, std::move(params), std::move(values),
                          dump_ms + parse_ms);
    std::cout << "json codec: " << name << " " << bytes << " bytes, dump "
              << dump_ms << "ms, parse " << parse_ms << "ms (" << mb_per_s
              << " MB/s)\n";
  };

  rng gen(26);
  const int series = 10;
  const int steps = bench::smoke() ? 8000 : 83561;
  obs::metrics_registry metrics;
  for (int s = 0; s < series; ++s) {
    obs::series& one = metrics.get_series("series" + std::to_string(s));
    for (int t = 0; t < steps; ++t) {
      one.push(static_cast<std::int64_t>(gen.below(2048)));
    }
    metrics.get_histogram("hist" + std::to_string(s))
        .observe(static_cast<std::int64_t>(gen.below(1 << 20)));
  }
  record("json_codec/metrics_export/series=" + std::to_string(series) +
             "/steps=" + std::to_string(steps),
         bench::params("series", series, "steps", steps),
         [&metrics] { return metrics.to_json().dump(); },
         [](const std::string& text) {
           return obs::json_parse(text).has_value();
         });

  const int lines = bench::smoke() ? 1200 : 12000;
  std::vector<trial_record> trials(static_cast<std::size_t>(lines));
  for (int i = 0; i < lines; ++i) {
    trial_record& t = trials[static_cast<std::size_t>(i)];
    t.seed = static_cast<std::uint64_t>(i) + 1;
    t.completed = gen.below(16) != 0;
    t.steps = static_cast<std::int64_t>(gen.below(100000));
    t.informed_step = t.completed ? t.steps - 1 : -1;
    t.transmissions = static_cast<std::int64_t>(gen.below(1 << 20));
    t.collisions = static_cast<std::int64_t>(gen.below(1 << 16));
    t.deliveries = static_cast<std::int64_t>(gen.below(1 << 16));
    t.reachable_nodes = 128;
    t.informed_reachable = 128;
    t.wall_ms = gen.uniform01() * 10.0;
  }
  record("json_codec/trial_records/lines=" + std::to_string(lines),
         bench::params("lines", lines),
         [&trials] {
           std::string text;
           for (const trial_record& t : trials) {
             text += campaign::trial_record_json(t).dump();
             text += '\n';
           }
           return text;
         },
         [lines](const std::string& text) {
           std::istringstream in(text);
           obs::ndjson_reader reader(in);
           while (reader.next().has_value()) {
           }
           return !reader.failed() && reader.documents() == lines;
         });
}

// --------------------------------------------------------------------------
// Deterministic-protocol SoA measurement.
// --------------------------------------------------------------------------

// Times a fixed step WINDOW of the same seeded run under a given engine.
// The deterministic token protocols keep every informed node in the awake
// list until the traversal winds down, so timing a full n = 2^18 run would
// cost Θ(n²) node-steps regardless of topology; a truncated window bounds
// the work while still measuring the engines on the real mega-scale graph.
// Truncation is exact: both engines stop after the same `window` steps of
// bit-identical work, so every record field still has to match.
engine_timing time_engine_window(const graph& g, const protocol& proto,
                                 int reps, step_engine engine,
                                 std::int64_t window, int step_threads,
                                 std::int64_t shard_grain) {
  engine_timing out;
  for (int rep = 0; rep < reps; ++rep) {
    run_options opts;
    opts.seed = 42;
    opts.max_steps = window;
    opts.stop = stop_condition::all_halted;
    opts.engine = engine;
    opts.step_threads = step_threads;
    opts.step_shard_grain = shard_grain;
    const auto start = std::chrono::steady_clock::now();
    run_result r = run_broadcast(g, proto, opts);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    out.steps = r.steps;
    // radiocast-analyze: allow(taint) -- min-of-reps selection between
    // bit-identical runs (same seed and step window); timing picks which
    // copy to keep, never what it contains.
    if (ms < out.min_ms) {
      out.min_ms = ms;
      out.result = std::move(r);
    }
  }
  return out;
}

void require_identical(const run_result& a, const run_result& b,
                       const char* what) {
  RC_CHECK_MSG(a.steps == b.steps && a.informed_step == b.informed_step &&
                   a.transmissions == b.transmissions &&
                   a.collisions == b.collisions &&
                   a.deliveries == b.deliveries &&
                   a.informed_at == b.informed_at,
               std::string("soa traits diverged from the polling walk: ") +
                   what);
}

// The deterministic protocols (select-and-send, complete-layered) polled
// vs on the SoA calendar on an n = 2^18 thin-layer network: the SoA traits
// forms must be bit-identical where the speedup is measured, and the gated
// `det_soa_speedup` (combined polling wall-clock over combined SoA
// wall-clock across both protocols) must stay above 1×. The per-protocol
// legs are recorded separately for diagnosis but not hard-gated: the
// select-and-send margin is thin at short windows and would flake on noisy
// hosts, while the combined ratio only dips below 1× on a genuine
// step-loop regression. Also records a
// step_threads = 4 sharded-step measurement so the multi-core intra-step
// number lands in a committed baseline. The polling legs (recorded under
// the historical `*_frontier_*` keys) run virtual_view on the soa engine:
// per-node traits_node objects behind virtual calls, every awake node
// polled every step. The gate therefore compares virtual polling against
// the SoA layout with its calendar.
void check_deterministic_scale(bench::reporter& rep) {
  const node_id n = bench::smoke() ? (1 << 13) : (1 << 18);
  const int d = bench::smoke() ? 32 : 1024;  // thin layers: width = n / d
  // The smoke window is long enough for the calendar to win clearly: over
  // ten runs of these legs per window at smoke size on a 4-vCPU host, the
  // Select-and-Send leg's smallest ratio was 0.96× at 8 000 steps and
  // 1.22× at 80 000 (docs/PERFORMANCE.md has the table).
  const std::int64_t window = bench::smoke() ? 80'000 : 40'000;
  const int reps = bench::smoke() ? 3 : 5;
  const int par_threads = 4;
  // Small shard grain for the threads run so intra-step sharding engages
  // even at smoke scale (awake counts there stay below the default grain);
  // the ordered merge keeps any grain bit-identical to the serial loop.
  const std::int64_t grain = 512;
  graph g = make_complete_layered_uniform(n, d);

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("d", d);
  values.set("window_steps", window);
  values.set("reps", reps);
  values.set("hardware_threads", exec::hardware_threads());
  double wall = 0.0;
  double poll_total_ms = 0.0;
  double soa_total_ms = 0.0;

  const char* kProtos[] = {"select-and-send", "complete-layered"};
  const char* kTags[] = {"sas", "cl"};
  for (int p = 0; p < 2; ++p) {
    const auto proto = make_protocol(kProtos[p], n - 1);
    const virtual_view virt(*proto);
    time_engine_window(g, *proto, 1, step_engine::soa, window, 1, 0);
    const engine_timing poll = time_engine_window(
        g, virt, reps, step_engine::soa, window, 1, 0);
    const engine_timing soa = time_engine_window(
        g, *proto, reps, step_engine::soa, window, 1, 0);
    const engine_timing soa4 = time_engine_window(
        g, *proto, reps, step_engine::soa, window, par_threads, grain);

    // Bit-identity enforced where the speedup is measured — single-thread
    // SoA against the polling oracle, and the sharded run against both.
    require_identical(poll.result, soa.result, kProtos[p]);
    require_identical(soa.result, soa4.result, kProtos[p]);

    const double speedup = soa.min_ms > 0.0 ? poll.min_ms / soa.min_ms : 1.0;
    const double speedup4 =
        soa4.min_ms > 0.0 ? poll.min_ms / soa4.min_ms : 1.0;
    poll_total_ms += poll.min_ms;
    soa_total_ms += soa.min_ms;
    const std::string tag = kTags[p];
    values.set(tag + "_steps", soa.steps);
    values.set(tag + "_frontier_min_ms", poll.min_ms);
    values.set(tag + "_soa_min_ms", soa.min_ms);
    values.set(tag + "_soa_threads4_min_ms", soa4.min_ms);
    values.set(tag + "_soa_speedup", speedup);
    values.set(tag + "_soa_threads4_speedup", speedup4);
    set_edge_cost(values, tag + "_", g, soa.result, soa.min_ms);
    wall += poll.min_ms + soa.min_ms + soa4.min_ms;

    std::cout << "deterministic scale: " << kProtos[p] << " polling="
              << poll.min_ms << "ms soa=" << soa.min_ms << "ms soa(t=4)="
              << soa4.min_ms << "ms over " << soa.steps
              << " steps (soa_speedup=" << speedup << "x)\n";
  }
  const double det_soa_speedup =
      soa_total_ms > 0.0 ? poll_total_ms / soa_total_ms : 1.0;
  values.set("det_soa_speedup", det_soa_speedup);
  rep.add_analytic_case(
      "deterministic_scale/layered_uniform/n=" + std::to_string(n) +
          "/d=" + std::to_string(d),
      bench::params("n", n, "d", d, "window", window), std::move(values),
      wall);

  // The deterministic SoA traits exist to make the token protocols usable
  // at mega scale; the hard floor here is >1× so noisy or single-core CI
  // hosts don't flake, with the measured ratio recorded for the regress
  // gate (`det_soa_speedup`, tolerance-checked in scripts/ci.sh stage 6).
  RC_CHECK_MSG(det_soa_speedup > 1.0,
               "soa traits not faster than the polling walk for the "
               "deterministic protocols: the calendar or the devirtualized "
               "step loop has regressed");
}

// Full (unwindowed) Select-and-Send to all_halted on the soa engine. A
// token protocol keeps every informed node awake, so polling made a full
// run Θ(n²) node-steps and check_deterministic_scale above had to time a
// fixed window. With the quiescence calendar (sim/soa_engine.h) a node
// waiting for a reply slot or the token costs nothing per step, and the
// whole O(n log n)-step traversal of Theorem 3 runs at n = 2^16. At smoke
// size the record must match the polling walk's (virtual_view on soa: no
// calendar).
void check_full_deterministic(bench::reporter& rep) {
  const node_id n = bench::smoke() ? (1 << 12) : (1 << 16);
  const int d = bench::smoke() ? 64 : 1024;  // layer width 64
  graph g = make_complete_layered_uniform(n, d);
  const auto proto = make_protocol("select-and-send", n - 1);

  run_options opts;
  opts.seed = 42;
  opts.max_steps = 1'000'000'000;
  opts.stop = stop_condition::all_halted;
  opts.engine = step_engine::soa;
  const auto start = std::chrono::steady_clock::now();
  const run_result soa = run_broadcast(g, *proto, opts);
  const double ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();
  RC_CHECK_MSG(soa.completed, "full select-and-send run did not terminate");
  if (bench::smoke()) {
    require_identical(run_broadcast(g, virtual_view(*proto), opts), soa,
                      "full select-and-send");
  }
  const double steps_per_sec = static_cast<double>(soa.steps) / (ms / 1000.0);

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("d", d);
  values.set("steps", soa.steps);
  values.set("informed_step", soa.informed_step);
  values.set("transmissions", soa.transmissions);
  values.set("soa_min_ms", ms);
  values.set("steps_per_sec_soa", steps_per_sec);
  set_edge_cost(values, "", g, soa, ms);
  rep.add_analytic_case(
      "full_deterministic/select-and-send/layered_uniform/n=" +
          std::to_string(n) + "/d=" + std::to_string(d),
      bench::params("n", n, "d", d), std::move(values), ms);
  std::cout << "full deterministic: select-and-send n=" << n << " d=" << d
            << " soa=" << ms << "ms over " << soa.steps << " steps ("
            << steps_per_sec << " steps/s)\n";
}

}  // namespace
}  // namespace radiocast

int main(int argc, char** argv) {
  radiocast::bench::parse_threads_flag(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  // Under smoke the google-benchmark pass shrinks to a token run; the
  // overhead guard below still executes in full.
  std::string min_time = "--benchmark_min_time=0.01";
  if (radiocast::bench::smoke()) args.push_back(min_time.data());
  int benchmark_argc = static_cast<int>(args.size());
  benchmark::Initialize(&benchmark_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  radiocast::bench::reporter rep("simulator_throughput");
  rep.config("kind", "microbenchmark");
  radiocast::check_metrics_overhead(rep);
  radiocast::check_parallel_speedup(rep);
  radiocast::check_frontier_speedup(rep);
  radiocast::check_mega_scale(rep);
  radiocast::check_gnp_scale(rep);
  radiocast::check_graph_build(rep);
  radiocast::check_json_codec(rep);
  radiocast::check_deterministic_scale(rep);
  radiocast::check_full_deterministic(rep);
  return 0;
}
