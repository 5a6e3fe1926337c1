// The benchmark's own tests: the derived counts agree with the library's
// own event and metric streams, the percentile rule holds, and the timing
// fault wrapper changes no trial record.
#include <iostream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "fault/loss.h"
#include "fault/recovery.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "probes.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace perfbench {

namespace {

using radiocast::graph;
using radiocast::run_options;
using radiocast::run_result;

struct small_case {
  std::string name;
  graph g;
  std::string protocol;
  radiocast::stop_condition stop;
};

std::vector<small_case> small_cases() {
  radiocast::rng gen(11);
  std::vector<small_case> cases;
  cases.push_back({"decay/gnp",
                   radiocast::make_gnp_sparse_connected(2000, 8.0 / 2000, gen),
                   "decay", radiocast::stop_condition::all_informed});
  cases.push_back({"select-and-send/layered",
                   radiocast::make_complete_layered_uniform(256, 8),
                   "select-and-send", radiocast::stop_condition::all_halted});
  return cases;
}

run_options small_options(const small_case& c) {
  run_options o;
  o.seed = 3;
  o.stop = c.stop;
  o.engine = radiocast::step_engine::soa;
  o.step_threads = 1;
  o.max_steps = 10'000'000;
  return o;
}

bool edge_visits_match_transmit_events() {
  bool ok = true;
  for (const small_case& c : small_cases()) {
    const auto proto = radiocast::make_protocol(c.protocol, c.g.node_count() - 1);
    radiocast::trace events;
    run_options o = small_options(c);
    o.sink = &events;
    const run_result r = radiocast::run_broadcast(c.g, *proto, o);
    std::int64_t from_events = 0;
    for (const auto& e : events.filter(radiocast::trace_event::type::transmit)) {
      from_events += c.g.out_degree(e.node);
    }
    if (from_events != edge_visits(c.g, r) || from_events == 0) {
      std::cerr << "  " << c.name << ": events give " << from_events
                << ", transmissions_per_node give " << edge_visits(c.g, r)
                << "\n";
      ok = false;
    }
  }
  return ok;
}

bool awake_node_steps_match_awake_series() {
  bool ok = true;
  for (const small_case& c : small_cases()) {
    const auto proto = radiocast::make_protocol(c.protocol, c.g.node_count() - 1);
    radiocast::obs::metrics_registry metrics;
    run_options o = small_options(c);
    o.metrics = &metrics;
    const run_result r = radiocast::run_broadcast(c.g, *proto, o);
    std::int64_t from_series = 0;
    if (const auto* s = metrics.find_series("sim.awake")) {
      for (const std::int64_t v : s->values()) from_series += v;
    }
    if (from_series != awake_node_steps(r) || from_series == 0) {
      std::cerr << "  " << c.name << ": sim.awake sums to " << from_series
                << ", informed_at gives " << awake_node_steps(r) << "\n";
      ok = false;
    }
  }
  return ok;
}

bool percentile_needs_ten_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  // 200 distinct samples: p95 is the 190th, and exactly ten lie beyond it.
  const auto at200 = tail_percentile(v, 95.0);
  v.pop_back();
  // 199 samples: p95 is still the 190th, with only nine beyond.
  const auto at199 = tail_percentile(v, 95.0);
  // Ties at the percentile do not count as beyond it.
  const auto ties = tail_percentile(std::vector<double>(500, 1.0), 95.0);
  return at200 && *at200 == 190.0 && !at199 && !ties;
}

bool fault_wrapper_is_transparent() {
  const graph g = radiocast::make_complete_layered_uniform(128, 8);
  const auto proto = radiocast::make_protocol("kp", 127, 8);
  radiocast::fault::recovery_options ro;
  ro.crash_probability = 1e-3;
  ro.downtime = 20;
  ro.spare_source = true;
  radiocast::fault::recovery_model recovery(ro);
  radiocast::fault::loss_model loss({0.1});
  radiocast::fault::composite_fault_model faults({&recovery, &loss});
  bool ok = true;
  for (const int threads : {1, 4}) {
    radiocast::trial_options o;
    o.trials = 24;
    o.base_seed = 7;
    o.threads = threads;
    o.step_threads = 1;
    o.faults = &faults;
    const auto plain = radiocast::parallel_run_trials(g, *proto, o);
    const auto timing = std::make_shared<fault_timing>();
    timed_fault_model wrapped(&faults, timing);
    o.faults = &wrapped;
    const auto timed = radiocast::parallel_run_trials(g, *proto, o);
    wrapped.flush();
    digest a;
    digest b;
    for (const auto& t : plain.trials) add_record(a, t);
    for (const auto& t : timed.trials) add_record(b, t);
    std::int64_t recoveries_a = 0;
    std::int64_t recoveries_b = 0;
    for (const auto& t : plain.trials) recoveries_a += t.recoveries;
    for (const auto& t : timed.trials) recoveries_b += t.recoveries;
    if (a.value() != b.value() || recoveries_a != recoveries_b ||
        plain.trials.size() != timed.trials.size() || timing->calls == 0) {
      std::cerr << "  threads=" << threads << ": records differ or no calls\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int run_selftests() {
  const struct {
    const char* name;
    bool (*fn)();
  } tests[] = {
      {"edge_visits_match_transmit_events", edge_visits_match_transmit_events},
      {"awake_node_steps_match_awake_series",
       awake_node_steps_match_awake_series},
      {"percentile_needs_ten_beyond", percentile_needs_ten_beyond},
      {"fault_wrapper_is_transparent", fault_wrapper_is_transparent},
  };
  int failed = 0;
  for (const auto& t : tests) {
    const bool ok = t.fn();
    std::cout << (ok ? "ok   " : "FAIL ") << t.name << "\n";
    if (!ok) ++failed;
  }
  std::cout << (failed == 0 ? "all self-tests passed" : "self-tests failed")
            << "\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
