#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "obs/span.h"
#include "sim/soa_engine.h"
#include "util/assert.h"

namespace radiocast {

namespace {

/// virtual_view's traits: per-node state is a pointer to a traits_node that
/// make_node built, in node order, into a vector that outlives the run, and
/// every hook is a virtual call. Each node owns its traits copy, so phase 1
/// may shard across nodes. It has no begin_step (nodes hoist for
/// themselves) and no next_poll, so soa_run (sim/soa_engine.h) walks the
/// whole awake list each step under step_engine::soa and all n nodes under
/// reference.
struct virtual_soa_traits {
  const protocol* proto;
  std::vector<std::unique_ptr<protocol_node>>* nodes;

  struct state {
    protocol_node* node;
  };

  void init(state* s, node_id label, const protocol_params& params) const {
    nodes->push_back(proto->make_node(label, params));
    s->node = nodes->back().get();
    RC_CHECK(s->node != nullptr);
  }

  // radiocast-analyze: hot-path-begin -- per-node dispatch, called once
  // per stepped node per step.

  std::optional<message> on_step(state* s, const node_context& ctx) const {
    return s->node->on_step(ctx);
  }
  void on_receive(state* s, const node_context& ctx, const message& m) const {
    s->node->on_receive(ctx, m);
  }
  bool informed(const state& s) const { return s.node->informed(); }
  bool halted(const state& s) const { return s.node->halted(); }
  void on_restart(state* s, const node_context& ctx) const {
    s->node->on_restart(ctx);
  }

  // radiocast-analyze: hot-path-end
};

run_result virtual_entry(const graph& g, const protocol& view, node_id r,
                         const run_options& opts) {
  std::vector<std::unique_ptr<protocol_node>> nodes;
  nodes.reserve(static_cast<std::size_t>(g.node_count()));
  return run_broadcast_soa(g, virtual_soa_traits{&view, &nodes}, r, opts);
}

}  // namespace

soa_entry virtual_view::soa_runner() const { return &virtual_entry; }

const char* run_outcome_name(run_outcome o) {
  switch (o) {
    case run_outcome::completed: return "completed";
    case run_outcome::stuck: return "stuck";
    case run_outcome::unreachable: return "unreachable";
    case run_outcome::source_lost: return "source_lost";
  }
  return "unknown";
}

run_result run_broadcast_with_r(const graph& g, const protocol& proto,
                                node_id r, const run_options& opts) {
  obs::span_profiler* profiler =
      opts.profiler != nullptr ? opts.profiler : obs::global_profiler();
  obs::scoped_span run_span(profiler, "run_broadcast");
  // One virtual call per RUN: the protocol's templated SoA entry — the
  // step loops behind it have no virtual dispatch.
  return proto.soa_runner()(g, proto, r, opts);
}

run_result run_broadcast(const graph& g, const protocol& proto,
                         const run_options& opts) {
  return run_broadcast_with_r(g, proto, g.node_count() - 1, opts);
}

std::size_t trial_set::completed_count() const {
  return static_cast<std::size_t>(
      std::count_if(trials.begin(), trials.end(),
                    [](const trial_record& t) { return t.completed; }));
}

double trial_set::timeout_rate() const {
  if (trials.empty()) return 0.0;
  return 1.0 - static_cast<double>(completed_count()) /
                   static_cast<double>(trials.size());
}

std::vector<double> trial_set::completion_steps() const {
  std::vector<double> out;
  out.reserve(trials.size());
  for (const trial_record& t : trials) {
    if (t.completed) out.push_back(static_cast<double>(t.informed_step));
  }
  return out;
}

double trial_set::total_wall_ms() const {
  double total = 0.0;
  for (const trial_record& t : trials) total += t.wall_ms;
  return total;
}

trial_set run_trials(const graph& g, const protocol& proto,
                     const trial_options& opts) {
  RC_REQUIRE(opts.trials >= 1);
  obs::span_profiler* profiler =
      opts.profiler != nullptr ? opts.profiler : obs::global_profiler();
  obs::scoped_span batch_span(profiler, "run_trials");

  trial_set out;
  out.trials.reserve(static_cast<std::size_t>(opts.trials));
  for (int t = 0; t < opts.trials; ++t) {
    run_options ropts;
    ropts.seed = opts.base_seed + static_cast<std::uint64_t>(t);
    ropts.max_steps = opts.max_steps;
    ropts.stop = opts.stop;
    ropts.metrics = opts.metrics;
    ropts.profiler = opts.profiler;
    ropts.faults = opts.faults;  // re-seeded per trial by begin_run
    ropts.engine = opts.engine;
    ropts.verify_sleepers = opts.verify_sleepers;
    ropts.step_threads = opts.step_threads;
    ropts.step_shard_grain = opts.step_shard_grain;
    // radiocast-analyze: allow(wall-clock) -- wall_ms is reporting-only and
    // explicitly excluded from the serial/parallel bit-identity contract
    const auto start = std::chrono::steady_clock::now();
    const run_result r = run_broadcast(g, proto, ropts);
    // radiocast-analyze: allow(wall-clock) -- wall_ms is reporting-only and
    // explicitly excluded from the serial/parallel bit-identity contract
    const auto end = std::chrono::steady_clock::now();

    trial_record rec;
    rec.seed = ropts.seed;
    rec.completed = r.completed;
    rec.steps = r.steps;
    rec.informed_step = r.completed ? r.informed_step : std::int64_t{-1};
    rec.transmissions = r.transmissions;
    rec.collisions = r.collisions;
    rec.deliveries = r.deliveries;
    rec.crashed_nodes = r.crashed_nodes;
    rec.recoveries = r.recoveries;
    rec.suppressed_deliveries = r.suppressed_deliveries;
    rec.churned_edges = r.churned_edges;
    rec.reachable_nodes = r.reachable_nodes;
    rec.informed_reachable = r.informed_reachable;
    rec.outcome = r.outcome;
    rec.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            end - start)
            .count();
    out.trials.push_back(rec);
  }
  return out;
}

std::vector<double> completion_times(const graph& g, const protocol& proto,
                                     int trials, std::uint64_t base_seed,
                                     std::int64_t max_steps) {
  trial_options opts;
  opts.trials = trials;
  opts.base_seed = base_seed;
  opts.max_steps = max_steps;
  const trial_set batch = run_trials(g, proto, opts);
  if (!batch.all_completed()) {
    // Identify the first failing seed so the throw is actionable; sweeps
    // that must survive timeouts use run_trials directly.
    std::uint64_t first_failed = 0;
    for (const trial_record& t : batch.trials) {
      if (!t.completed) {
        first_failed = t.seed;
        break;
      }
    }
    const std::size_t failed = batch.trials.size() - batch.completed_count();
    RC_CHECK_MSG(false, "broadcast did not complete within " +
                            std::to_string(max_steps) +
                            " steps for protocol " + proto.name() + " (" +
                            std::to_string(failed) + "/" +
                            std::to_string(batch.trials.size()) +
                            " trials timed out; first failing seed " +
                            std::to_string(first_failed) + ")");
  }
  return batch.completion_steps();
}

}  // namespace radiocast
