// Differential tests: every protocol vs an independent replay of the radio
// model.
//
// Each run records a full event trace (the ring buffer from sim/trace.h,
// sized so nothing is evicted) and this suite replays it against the
// paper's §1 communication rules, reimplemented here from the graph alone:
//
//   * a node hears a message in step s iff EXACTLY ONE of its in-neighbors
//     transmits in s and it does not transmit itself;
//   * ≥ 2 transmitting in-neighbors ⇒ a collision, indistinguishable from
//     silence;
//   * no spontaneous transmissions: every transmitter except the source
//     must have received some message in an earlier step;
//   * under fault injection, a would-be delivery may instead surface as a
//     `drop` event (loss/jamming) and crashed nodes fall silent until a
//     `recover` event (if any) brings them back. This oracle replays
//     retain-mode recoveries; amnesia traces (which re-inform nodes, so
//     informed events are not once-per-node) are covered by the chaos
//     harness oracle (src/fault/chaos.cpp) instead.
//
// The simulator's aggregate counters (transmissions, deliveries,
// collisions, suppressed_deliveries, informed_at) must equal what the
// replay derives, and on completion every surviving node must be informed.
// Any divergence between the step loop and the model definition —
// miscounted arrivals, deliveries through the wrong phase, events at the
// wrong step — fails here even if the protocol still happens to complete.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/dfs_known.h"
#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "fault/churn.h"
#include "fault/crash.h"
#include "fault/fault_model.h"
#include "fault/loss.h"
#include "fault/partition.h"
#include "fault/recovery.h"
#include "obs/metrics.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "util/rng.h"

namespace radiocast {
namespace {

// Events of one step, bucketed by type for the replay.
struct step_events {
  std::set<node_id> transmit;
  std::map<node_id, message> receive;  // listener → delivered frame
  std::set<node_id> collision;
  std::set<node_id> informed;
  std::set<node_id> crash;
  std::set<node_id> recover;
  std::set<node_id> amnesia;  // recoveries with the state-loss flag set
  std::set<node_id> drop;
  bool edge_churn = false;  // any edge_down/edge_up (unsupported here)
};

std::map<std::int64_t, step_events> bucket_by_step(const trace& tr) {
  std::map<std::int64_t, step_events> steps;
  for (const trace_event& e : tr.events()) {
    step_events& s = steps[e.step];
    switch (e.what) {
      case trace_event::type::transmit:
        EXPECT_TRUE(s.transmit.insert(e.node).second)
            << "node " << e.node << " transmitted twice in step " << e.step;
        break;
      case trace_event::type::receive:
        EXPECT_TRUE(s.receive.emplace(e.node, e.msg).second)
            << "node " << e.node << " received twice in step " << e.step;
        break;
      case trace_event::type::collision:
        EXPECT_TRUE(s.collision.insert(e.node).second);
        break;
      case trace_event::type::informed:
        EXPECT_TRUE(s.informed.insert(e.node).second);
        break;
      case trace_event::type::crash:
        EXPECT_TRUE(s.crash.insert(e.node).second);
        break;
      case trace_event::type::recover:
        EXPECT_TRUE(s.recover.insert(e.node).second);
        if (e.msg.a == 1) s.amnesia.insert(e.node);
        break;
      case trace_event::type::drop:
        // Exactly-one-transmitter ⇒ at most one candidate per listener,
        // so drops cannot repeat within a step either.
        EXPECT_TRUE(s.drop.insert(e.node).second);
        break;
      case trace_event::type::edge_down:
      case trace_event::type::edge_up:
        s.edge_churn = true;
        break;
    }
  }
  return steps;
}

// Replays the trace against the radio rule and cross-checks run_result.
// `faults_allowed` admits crash and drop events (still no churn: a down
// edge changes the effective topology and this oracle reads the static
// graph).
void verify_against_radio_rule(const graph& g, const trace& tr,
                               const run_result& r, bool faults_allowed,
                               const std::string& what) {
  ASSERT_EQ(tr.dropped(), 0u)
      << what << ": ring evicted events; grow the capacity";
  const node_id n = g.node_count();
  const auto steps = bucket_by_step(tr);

  std::set<node_id> crashed;
  std::vector<bool> has_received(static_cast<std::size_t>(n), false);
  std::vector<std::int64_t> first_informed(static_cast<std::size_t>(n), -1);
  std::int64_t transmissions = 0, deliveries = 0, collisions = 0, drops = 0;
  std::int64_t crashes = 0, recoveries = 0;

  for (const auto& [step, ev] : steps) {
    const std::string where = what + ", step " + std::to_string(step);
    EXPECT_FALSE(ev.edge_churn) << where << ": unexpected churn event";
    if (!faults_allowed) {
      EXPECT_TRUE(ev.crash.empty() && ev.drop.empty() && ev.recover.empty())
          << where << ": fault events in a fault-free run";
    }
    // Amnesia recoveries re-inform nodes, breaking the informed-once
    // bookkeeping below; those traces belong to the chaos oracle.
    EXPECT_TRUE(ev.amnesia.empty())
        << where << ": amnesia traces are not supported by this oracle";
    // Crashes land at the top of the step, before transmit decisions;
    // recoveries follow, so a retain-mode node is live again in the same
    // step its rejoin event appears.
    crashed.insert(ev.crash.begin(), ev.crash.end());
    crashes += static_cast<std::int64_t>(ev.crash.size());
    for (node_id v : ev.recover) {
      EXPECT_EQ(crashed.erase(v), 1u)
          << where << ": recovery of a node that was not down: " << v;
    }
    recoveries += static_cast<std::int64_t>(ev.recover.size());

    transmissions += static_cast<std::int64_t>(ev.transmit.size());
    deliveries += static_cast<std::int64_t>(ev.receive.size());
    collisions += static_cast<std::int64_t>(ev.collision.size());
    drops += static_cast<std::int64_t>(ev.drop.size());

    for (node_id t : ev.transmit) {
      EXPECT_EQ(crashed.count(t), 0u) << where << ": crashed " << t
                                      << " transmitted";
      EXPECT_TRUE(t == 0 || has_received[static_cast<std::size_t>(t)])
          << where << ": spontaneous transmission by " << t;
    }

    // The radio rule, node by node, from the graph and the transmitter set.
    for (node_id v = 0; v < n; ++v) {
      const bool is_tx = ev.transmit.count(v) != 0;
      const bool is_crashed = crashed.count(v) != 0;
      int arriving = 0;
      node_id lone_sender = -1;
      for (node_id u : g.in_neighbors(v)) {
        if (ev.transmit.count(u) != 0) {
          ++arriving;
          lone_sender = u;
        }
      }
      const bool got = ev.receive.count(v) != 0;
      const bool collided = ev.collision.count(v) != 0;
      const bool dropped = ev.drop.count(v) != 0;
      if (is_tx || is_crashed) {
        // Busy transmitting (or gone): hears nothing, collides with
        // nothing, loses nothing.
        EXPECT_FALSE(got || collided || dropped)
            << where << ": events at " << (is_tx ? "transmitter " : "crashed ")
            << v;
        continue;
      }
      if (arriving >= 2) {
        EXPECT_TRUE(collided) << where << ": missing collision at " << v;
        EXPECT_FALSE(got || dropped) << where << ": delivery through a "
                                     << arriving << "-collision at " << v;
      } else if (arriving == 1) {
        EXPECT_FALSE(collided) << where << ": phantom collision at " << v;
        if (faults_allowed) {
          EXPECT_TRUE(got != dropped)
              << where << ": lone transmission to " << v
              << " must surface as exactly one of receive/drop";
        } else {
          EXPECT_TRUE(got) << where << ": missing delivery to " << v;
          EXPECT_FALSE(dropped) << where;
        }
        if (got) {
          // The frame must come from the unique transmitting in-neighbor
          // (labels are the identity here).
          EXPECT_EQ(ev.receive.at(v).from, lone_sender) << where;
        }
      } else {
        EXPECT_FALSE(got || collided || dropped)
            << where << ": silence violated at " << v;
      }
      if (got) has_received[static_cast<std::size_t>(v)] = true;
    }

    for (node_id v : ev.informed) {
      EXPECT_NE(v, 0) << where << ": source re-informed";
      EXPECT_NE(ev.receive.count(v), 0u)
          << where << ": informed event without a delivery at " << v;
      EXPECT_EQ(first_informed[static_cast<std::size_t>(v)], -1)
          << where << ": node " << v << " informed twice";
      first_informed[static_cast<std::size_t>(v)] = step;
    }
  }

  // Aggregate counters must match the replay exactly.
  EXPECT_EQ(r.transmissions, transmissions) << what;
  EXPECT_EQ(r.deliveries, deliveries) << what;
  EXPECT_EQ(r.collisions, collisions) << what;
  EXPECT_EQ(r.suppressed_deliveries, drops) << what;
  // crashed_nodes counts crash EVENTS (a recovered node may crash again),
  // not the population currently down.
  EXPECT_EQ(r.crashed_nodes, crashes) << what;
  EXPECT_EQ(r.recoveries, recoveries) << what;

  // informed_at agrees with the informed events (source is step 0 by
  // definition and never gets an event).
  ASSERT_EQ(r.informed_at.size(), static_cast<std::size_t>(n)) << what;
  EXPECT_EQ(r.informed_at[0], 0) << what;
  for (node_id v = 1; v < n; ++v) {
    EXPECT_EQ(r.informed_at[static_cast<std::size_t>(v)],
              first_informed[static_cast<std::size_t>(v)])
        << what << ": informed_at mismatch at " << v;
  }

  // Completion means every surviving node is informed.
  if (r.completed) {
    for (node_id v = 0; v < n; ++v) {
      if (crashed.count(v) != 0) continue;
      EXPECT_NE(r.informed_at[static_cast<std::size_t>(v)], -1)
          << what << ": completed with uninformed survivor " << v;
    }
  }
}

run_result run_traced(const graph& g, const protocol& proto,
                      std::uint64_t seed, trace* tr,
                      fault::fault_model* faults = nullptr) {
  run_options opts;
  opts.seed = seed;
  opts.max_steps = 1'000'000;
  opts.sink = tr;
  opts.faults = faults;
  return run_broadcast(g, proto, opts);
}

// Protocols applicable to arbitrary connected undirected graphs, with the
// knowledge parameter each one needs.
std::vector<std::pair<std::string, int>> general_protocols(const graph& g) {
  const int d = radius_from(g);
  return {{"decay", -1},
          {"kp", d},
          {"kp-doubling", -1},
          {"round-robin", -1},
          {"select-and-send", -1},
          {"interleaved", -1},
          {"selective", max_degree(g) + 1}};
}

TEST(DifferentialTest, AllProtocolsObeyRadioRuleOnRandomGraphs) {
  rng topo_gen(71);
  std::vector<std::pair<std::string, graph>> graphs;
  graphs.emplace_back("gnp20", make_gnp_connected(20, 0.2, topo_gen));
  graphs.emplace_back("gnp28", make_gnp_connected(28, 0.12, topo_gen));
  graphs.emplace_back("tree24", make_random_tree(24, topo_gen));
  graphs.emplace_back("layered27", make_complete_layered_uniform(27, 4));

  for (const auto& [gtag, g] : graphs) {
    for (const auto& [proto_name, known_d] : general_protocols(g)) {
      const auto proto =
          make_protocol(proto_name, g.node_count() - 1, known_d);
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        const std::string what =
            gtag + "/" + proto_name + "/seed" + std::to_string(seed);
        trace tr(2'000'000);
        const run_result r = run_traced(g, *proto, seed, &tr);
        EXPECT_TRUE(r.completed) << what;
        verify_against_radio_rule(g, tr, r, /*faults_allowed=*/false, what);
      }
    }
  }
}

TEST(DifferentialTest, CompleteLayeredProtocolOnItsOwnFamily) {
  // The structure-aware baseline only runs on its own topology family.
  for (int d : {2, 5}) {
    const graph g = make_complete_layered_uniform(25, d);
    const auto proto = make_protocol("complete-layered", g.node_count() - 1);
    const std::string what = "layered25/d" + std::to_string(d);
    trace tr(2'000'000);
    const run_result r = run_traced(g, *proto, 1, &tr);
    EXPECT_TRUE(r.completed) << what;
    verify_against_radio_rule(g, tr, r, /*faults_allowed=*/false, what);
  }
}

TEST(DifferentialTest, SparseLabelsDoNotBendTheRule) {
  // Under a sparse labeling the schedules stretch, but the per-step radio
  // rule is label-independent — the oracle only needs `from` remapped.
  rng gen(101);
  const graph g = make_gnp_connected(18, 0.22, gen);
  const node_id r_bound = 3 * g.node_count();
  const std::vector<node_id> labels =
      sparse_labels(g.node_count(), r_bound, gen);
  for (const std::string proto_name : {"decay", "round-robin"}) {
    const auto proto = make_protocol(proto_name, r_bound, -1);
    run_options opts;
    opts.seed = 4;
    opts.max_steps = 1'000'000;
    opts.labels = labels;
    trace tr(2'000'000);
    opts.sink = &tr;
    const run_result r = run_broadcast_with_r(g, *proto, r_bound, opts);
    const std::string what = "sparse/" + proto_name;
    EXPECT_TRUE(r.completed) << what;
    ASSERT_EQ(tr.dropped(), 0u) << what;
    // Labeled variant of the delivery check: frames carry labels[sender].
    const auto steps = bucket_by_step(tr);
    for (const auto& [step, ev] : steps) {
      for (const auto& [v, msg] : ev.receive) {
        int arriving = 0;
        node_id lone_sender = -1;
        for (node_id u : g.in_neighbors(v)) {
          if (ev.transmit.count(u) != 0) {
            ++arriving;
            lone_sender = u;
          }
        }
        ASSERT_EQ(arriving, 1) << what << ", step " << step;
        EXPECT_EQ(msg.from,
                  labels[static_cast<std::size_t>(lone_sender)])
            << what << ", step " << step;
      }
    }
  }
}

TEST(DifferentialTest, FaultedRunsStayConsistent) {
  rng topo_gen(83);
  std::vector<std::pair<std::string, graph>> graphs;
  graphs.emplace_back("gnp22", make_gnp_connected(22, 0.25, topo_gen));
  graphs.emplace_back("layered24", make_complete_layered_uniform(24, 3));

  for (const auto& [gtag, g] : graphs) {
    for (const std::string proto_name : {"decay", "kp-doubling"}) {
      const auto proto = make_protocol(proto_name, g.node_count() - 1);
      for (std::uint64_t seed : {5u, 6u, 7u}) {
        const std::string what =
            gtag + "/" + proto_name + "/faulted/seed" + std::to_string(seed);
        fault::crash_options copts;
        copts.crash_probability = 0.0005;
        copts.spare_source = true;
        fault::crash_model crash(copts);
        fault::loss_model loss(fault::loss_options{0.2});
        std::vector<fault::fault_model*> parts{&crash, &loss};
        fault::composite_fault_model faults(parts);
        trace tr(2'000'000);
        const run_result r = run_traced(g, *proto, seed, &tr, &faults);
        // Completion under faults is data, not a guarantee; consistency
        // of whatever happened is the invariant.
        verify_against_radio_rule(g, tr, r, /*faults_allowed=*/true, what);
      }
    }
  }
}

TEST(DifferentialTest, RetainRecoveryRunsObeyRadioRule) {
  // Retain-mode crash-recovery: nodes cycle down and back with their state
  // intact, so the informed-once oracle still applies — recoveries just
  // reshape the crashed set mid-replay and must balance against
  // run_result::recoveries.
  rng topo_gen(89);
  std::vector<std::pair<std::string, graph>> graphs;
  graphs.emplace_back("gnp24", make_gnp_connected(24, 0.2, topo_gen));
  graphs.emplace_back("tree20", make_random_tree(20, topo_gen));

  for (const auto& [gtag, g] : graphs) {
    for (const std::string proto_name : {"decay", "round-robin"}) {
      const auto proto = make_protocol(proto_name, g.node_count() - 1);
      for (std::uint64_t seed : {9u, 10u, 11u}) {
        const std::string what =
            gtag + "/" + proto_name + "/recovery/seed" + std::to_string(seed);
        fault::recovery_options ropts;
        ropts.crash_probability = 0.003;
        ropts.mode = fault::recovery_mode::retain;
        ropts.downtime = 5;
        ropts.recovery_probability = 0.05;
        fault::recovery_model faults(ropts);
        trace tr(2'000'000);
        const run_result r = run_traced(g, *proto, seed, &tr, &faults);
        verify_against_radio_rule(g, tr, r, /*faults_allowed=*/true, what);
        EXPECT_EQ(r.recoveries, faults.recovered_count()) << what;
      }
    }
  }
}

TEST(DifferentialTest, TrialRecordsMatchTracedReruns) {
  // run_trials must be exactly "run_broadcast per seed": re-running any
  // trial's seed with a trace reproduces its record, and the trace totals
  // equal the record's counters.
  rng topo_gen(91);
  const graph g = make_gnp_connected(20, 0.2, topo_gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  trial_options topts;
  topts.trials = 5;
  topts.base_seed = 11;
  const trial_set batch = run_trials(g, *proto, topts);
  ASSERT_EQ(batch.trials.size(), 5u);
  for (const trial_record& t : batch.trials) {
    const std::string what = "trial seed " + std::to_string(t.seed);
    trace tr(2'000'000);
    const run_result r = run_traced(g, *proto, t.seed, &tr);
    EXPECT_EQ(r.completed, t.completed) << what;
    EXPECT_EQ(r.steps, t.steps) << what;
    EXPECT_EQ(r.informed_step, t.informed_step) << what;
    EXPECT_EQ(r.transmissions, t.transmissions) << what;
    EXPECT_EQ(r.collisions, t.collisions) << what;
    EXPECT_EQ(r.deliveries, t.deliveries) << what;
    verify_against_radio_rule(g, tr, r, /*faults_allowed=*/false, what);
  }
}

// ---------------------------------------------------------------------------
// Engine differential: soa vs reference, plus the virtual path.
//
// The soa engine (docs/PERFORMANCE.md) skips dormant nodes in phase 1,
// skips sleeping nodes through the quiescence calendar, hoists the fault
// branches out of phase 2, and shards both phases of a single step across
// threads with an ordered merge. Every protocol runs both engines on its
// SoA state; a virtual_view of it runs them over protocol_node objects
// instead. The contract for ALL is
// BIT IDENTITY with the reference engine — not statistical agreement:
// trial records, full metrics dumps, and event-for-event trace NDJSON must
// all be byte-equal, across protocols, graph families, fault models, the
// serial/parallel executors, and every intra-step thread count.
// verify_sleepers rides along on every soa run, so the dormant-node and
// sleep contracts are checked live, not assumed.
// ---------------------------------------------------------------------------

/// Everything observable from one run under a given engine.
struct engine_observation {
  trial_set records;
  std::string metrics_dump;
  std::string trace_ndjson;
};

/// Factory so each engine gets a fresh, identically-configured model.
using fault_factory = std::function<std::unique_ptr<fault::fault_model>()>;

engine_observation observe(const graph& g, const protocol& proto,
                           step_engine engine, const fault_factory& faults,
                           int threads, int step_threads = 1) {
  engine_observation out;

  // Trial batch with metrics, through the requested executor. Grain 1
  // forces intra-step sharding even on these tiny graphs whenever
  // step_threads > 1.
  obs::metrics_registry metrics;
  std::unique_ptr<fault::fault_model> model =
      faults ? faults() : nullptr;
  trial_options topts;
  topts.trials = 4;
  topts.base_seed = 101;
  topts.max_steps = 200'000;
  topts.metrics = &metrics;
  topts.faults = model.get();
  topts.engine = engine;
  topts.verify_sleepers = engine != step_engine::reference;
  topts.threads = threads;
  topts.step_threads = step_threads;
  topts.step_shard_grain = step_threads > 1 ? 1 : 0;
  out.records = threads == 0 ? run_trials(g, proto, topts)
                             : parallel_run_trials(g, proto, topts);
  out.metrics_dump = metrics.to_json().dump();

  // One traced single run (separate from the batch so the trace covers a
  // known seed regardless of executor sharding). No metrics registry here,
  // so a sharded soa run exercises the phase-1 split as well.
  trace tr(2'000'000);
  run_options ropts;
  ropts.seed = 101;
  ropts.max_steps = 200'000;
  ropts.sink = &tr;
  std::unique_ptr<fault::fault_model> trace_model =
      faults ? faults() : nullptr;
  ropts.faults = trace_model.get();
  ropts.engine = engine;
  ropts.verify_sleepers = engine != step_engine::reference;
  ropts.step_threads = step_threads;
  ropts.step_shard_grain = step_threads > 1 ? 1 : 0;
  run_broadcast(g, proto, ropts);
  std::ostringstream os;
  tr.to_ndjson(os);
  out.trace_ndjson = os.str();
  return out;
}

void expect_observations_equal(const engine_observation& ref,
                               const engine_observation& alt,
                               const std::string& what) {
  ASSERT_EQ(ref.records.trials.size(), alt.records.trials.size()) << what;
  for (std::size_t i = 0; i < ref.records.trials.size(); ++i) {
    const trial_record& a = ref.records.trials[i];
    const trial_record& b = alt.records.trials[i];
    const std::string tag = what + " trial " + std::to_string(i);
    EXPECT_EQ(a.seed, b.seed) << tag;
    EXPECT_EQ(a.completed, b.completed) << tag;
    EXPECT_EQ(a.steps, b.steps) << tag;
    EXPECT_EQ(a.informed_step, b.informed_step) << tag;
    EXPECT_EQ(a.transmissions, b.transmissions) << tag;
    EXPECT_EQ(a.collisions, b.collisions) << tag;
    EXPECT_EQ(a.deliveries, b.deliveries) << tag;
    EXPECT_EQ(a.crashed_nodes, b.crashed_nodes) << tag;
    EXPECT_EQ(a.suppressed_deliveries, b.suppressed_deliveries) << tag;
    EXPECT_EQ(a.churned_edges, b.churned_edges) << tag;
    EXPECT_EQ(a.recoveries, b.recoveries) << tag;
    EXPECT_EQ(a.reachable_nodes, b.reachable_nodes) << tag;
    EXPECT_EQ(a.informed_reachable, b.informed_reachable) << tag;
    EXPECT_EQ(a.outcome, b.outcome) << tag;
    // wall_ms is reporting-only and excluded from the contract.
  }
  EXPECT_EQ(ref.metrics_dump, alt.metrics_dump) << what << ": metrics dump";
  EXPECT_EQ(ref.trace_ndjson, alt.trace_ndjson) << what << ": trace";
}

void expect_engines_agree(const graph& g, const protocol& proto,
                          const fault_factory& faults, int threads,
                          const std::string& what) {
  const engine_observation ref =
      observe(g, proto, step_engine::reference, faults, threads);

  // The soa engine: serial, and intra-step sharded at 2 and 8 threads
  // (grain 1). Every variant must match the reference byte-for-byte.
  for (int st : {1, 2, 8}) {
    const engine_observation soa =
        observe(g, proto, step_engine::soa, faults, threads, st);
    expect_observations_equal(ref, soa,
                              what + "/soa@st" + std::to_string(st));
  }
  // The virtual leg: with the traits form hidden, the reference loop
  // drives one traits_node per node through the virtual adapter — the
  // per-node path the lower-bound adversary and user code take.
  const virtual_view view(proto);
  const engine_observation virt =
      observe(g, view, step_engine::reference, faults, threads);
  expect_observations_equal(ref, virt, what + "/virtual");
}

TEST(EngineDifferentialTest, AllProtocolsAllGraphFamilies) {
  rng topo_gen(303);
  std::vector<std::pair<std::string, graph>> graphs;
  graphs.emplace_back("gnp24", make_gnp_connected(24, 0.15, topo_gen));
  graphs.emplace_back("tree20", make_random_tree(20, topo_gen));
  graphs.emplace_back("layered30", make_complete_layered_uniform(30, 5));
  graphs.emplace_back("grid", make_grid(5, 5));

  for (const auto& [gtag, g] : graphs) {
    for (const auto& [proto_name, known_d] : general_protocols(g)) {
      const auto proto =
          make_protocol(proto_name, g.node_count() - 1, known_d);
      expect_engines_agree(g, *proto, nullptr, 0, gtag + "/" + proto_name);
    }
  }
}

TEST(EngineDifferentialTest, CompleteLayeredOnItsOwnFamily) {
  // The structure-aware baseline never appears in general_protocols (it
  // requires its own topology family), so its SoA traits get a dedicated
  // engine leg here: fault-free on two layer shapes, then crash and
  // loss models — completion under faults is data, byte-equality of
  // whatever happened is the contract.
  const fault_factory crash = [] {
    fault::crash_options o;
    o.crash_probability = 0.002;
    return std::make_unique<fault::crash_model>(o);
  };
  const fault_factory loss = [] {
    return std::make_unique<fault::loss_model>(fault::loss_options{0.15});
  };
  for (int d : {2, 5}) {
    const graph g = make_complete_layered_uniform(25, d);
    const auto proto = make_protocol("complete-layered", g.node_count() - 1);
    const std::string what = "layered25/d" + std::to_string(d);
    expect_engines_agree(g, *proto, nullptr, 0, what + "/faultfree");
    expect_engines_agree(g, *proto, crash, 0, what + "/crash");
    expect_engines_agree(g, *proto, loss, 0, what + "/loss");
  }
}

TEST(EngineDifferentialTest, DfsKnownWithoutATraitsForm) {
  // dfs_known's neighbor rows and unvisited flags live in per-run arrays
  // outside its POD state (the name predates its traits form). The soa
  // legs at 2 and 8 threads (grain 1) shard phase 1 across those rows and
  // must match the reference byte for byte, as must the virtual leg, whose
  // nodes own their flags — fault-free and under retain-mode
  // crash-recovery, which can strand the token.
  rng topo_gen(341);
  std::vector<std::pair<std::string, graph>> graphs;
  graphs.emplace_back("gnp24", make_gnp_connected(24, 0.15, topo_gen));
  graphs.emplace_back("tree20", make_random_tree(20, topo_gen));
  graphs.emplace_back("layered30", make_complete_layered_uniform(30, 5));
  const fault_factory retain = [] {
    fault::recovery_options o;
    o.crash_probability = 0.004;
    o.mode = fault::recovery_mode::retain;
    o.downtime = 6;
    return std::make_unique<fault::recovery_model>(o);
  };
  for (const auto& [gtag, g] : graphs) {
    const dfs_known_protocol proto(g);
    expect_engines_agree(g, proto, nullptr, 0, gtag + "/dfs-known");
    expect_engines_agree(g, proto, retain, 0, gtag + "/retain/dfs-known");
  }
}

TEST(EngineDifferentialTest, DfsKnownUnderAmnesiaAndLoss) {
  // The knowledge outside dfs_known's state must follow the state through
  // faults: an amnesia restart resets the node's own flags (on_restart),
  // and a lost announcement leaves a neighbor marked unvisited. Reference,
  // soa at 1, 2 and 8 threads, and the virtual leg must stay byte-equal.
  rng topo_gen(341);
  const graph g = make_gnp_connected(24, 0.15, topo_gen);
  const dfs_known_protocol proto(g);
  const fault_factory amnesia = [] {
    fault::recovery_options o;
    o.crash_probability = 0.004;
    o.mode = fault::recovery_mode::amnesia;
    o.downtime = 6;
    return std::make_unique<fault::recovery_model>(o);
  };
  const fault_factory loss = [] {
    return std::make_unique<fault::loss_model>(fault::loss_options{0.15});
  };
  expect_engines_agree(g, proto, amnesia, 0, "gnp24/amnesia/dfs-known");
  expect_engines_agree(g, proto, loss, 0, "gnp24/loss/dfs-known");
}

TEST(EngineDifferentialTest, DirectedGraphs) {
  rng topo_gen(307);
  const graph g = make_directed_layered({1, 5, 5, 5, 4}, 0.5, topo_gen);
  for (const std::string proto_name : {"decay", "kp-doubling"}) {
    const auto proto = make_protocol(proto_name, g.node_count() - 1);
    expect_engines_agree(g, *proto, nullptr, 0, "directed/" + proto_name);
  }
}

// Every fault model the engines must agree under, one test instance each.
std::vector<std::pair<std::string, fault_factory>> differential_fault_models() {
  return {
      {"crash",
       [] {
         fault::crash_options o;
         o.crash_probability = 0.002;
         return std::make_unique<fault::crash_model>(o);
       }},
      {"loss",
       [] {
         return std::make_unique<fault::loss_model>(
             fault::loss_options{0.15});
       }},
      {"churn",
       [] {
         return std::make_unique<fault::churn_model>(
             fault::churn_options{0.02});
       }},
      {"recovery_retain",
       [] {
         fault::recovery_options o;
         o.crash_probability = 0.004;
         o.mode = fault::recovery_mode::retain;
         o.downtime = 6;
         return std::make_unique<fault::recovery_model>(o);
       }},
      {"recovery_amnesia",
       [] {
         fault::recovery_options o;
         o.crash_probability = 0.004;
         o.mode = fault::recovery_mode::amnesia;
         o.downtime = 4;
         o.recovery_probability = 0.1;
         return std::make_unique<fault::recovery_model>(o);
       }},
      {"partition",
       [] {
         fault::partition_options o;
         o.toggle_probability = 0.01;
         o.period = 24;
         o.duration = 8;
         o.island_fraction = 0.3;
         return std::make_unique<fault::partition_model>(o);
       }},
      {"frontier_cut",
       [] {
         fault::frontier_cut_options o;
         o.budget_per_step = 1;
         o.total_budget = 4;
         return std::make_unique<fault::frontier_cut_model>(o);
       }},
  };
}

class EngineFaultModelTest : public testing::TestWithParam<std::size_t> {};

TEST_P(EngineFaultModelTest, UnderEveryFaultModel) {
  rng topo_gen(311);
  const graph g = make_gnp_connected(26, 0.15, topo_gen);
  const auto models = differential_fault_models();
  const auto& [ftag, factory] = models[GetParam()];
  // Memoryless protocols plus the token-carrying SoA-traits protocols
  // (select-and-send's DFS token, interleaved's odd-step stream) run
  // under every model, amnesia included: a token protocol may stall
  // after a state-wiping restart — completion is data, not a guarantee
  // — but whatever happens must be byte-equal across engines. The
  // rejection side of that contract (an RC_CHECK escaping identically
  // from every engine, should a restart ever land mid-invariant) is
  // covered by TokenProtocolsUnderAmnesiaStayEngineIdentical below.
  for (const std::string proto_name :
       {"decay", "round-robin", "select-and-send", "interleaved"}) {
    const auto proto = make_protocol(proto_name, g.node_count() - 1);
    expect_engines_agree(g, *proto, factory, 0, ftag + "/" + proto_name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EngineDifferentialTest, EngineFaultModelTest,
    testing::Range<std::size_t>(0, differential_fault_models().size()),
    [](const testing::TestParamInfo<std::size_t>& param) {
      return differential_fault_models()[param.param].first;
    });

TEST(EngineDifferentialTest, TokenProtocolsUnderAmnesiaStayEngineIdentical) {
  // A token protocol that loses its state mid-traversal is in a world its
  // invariants do not fully describe: a structural message arriving after
  // the wipe may legitimately fire an RC_CHECK (the chaos sampler excludes
  // token protocols for exactly this reason). That rejection is part of
  // the engine contract too — for every seed, both engines must agree
  // on WHETHER the run is rejected, and when it is not, on every record
  // field. (Empirically the protocols ride out every amnesia schedule
  // tried so far — restarted nodes re-join as fresh listeners — so the
  // rejection branch below is armed but not required to fire.)
  rng topo_gen(317);
  const graph g = make_gnp_connected(22, 0.2, topo_gen);
  const auto run_one = [&](const protocol& proto, step_engine engine,
                           std::uint64_t seed, run_result* out) {
    fault::recovery_options o;
    o.crash_probability = 0.02;
    o.mode = fault::recovery_mode::amnesia;
    o.downtime = 3;
    o.recovery_probability = 0.3;
    fault::recovery_model faults(o);
    run_options opts;
    opts.seed = seed;
    opts.max_steps = 5'000;
    opts.faults = &faults;
    opts.engine = engine;
    try {
      *out = run_broadcast(g, proto, opts);
    } catch (const invariant_error&) {
      return true;  // rejected
    }
    return false;
  };
  for (const std::string proto_name : {"select-and-send", "interleaved"}) {
    const auto proto = make_protocol(proto_name, g.node_count() - 1);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::string what =
          proto_name + "/amnesia/seed" + std::to_string(seed);
      run_result ref, soa;
      const bool ref_rejected =
          run_one(*proto, step_engine::reference, seed, &ref);
      const bool soa_rejected = run_one(*proto, step_engine::soa, seed, &soa);
      EXPECT_EQ(ref_rejected, soa_rejected) << what;
      if (ref_rejected) continue;
      EXPECT_EQ(ref.steps, soa.steps) << what;
      EXPECT_EQ(ref.transmissions, soa.transmissions) << what;
      EXPECT_EQ(ref.collisions, soa.collisions) << what;
      EXPECT_EQ(ref.deliveries, soa.deliveries) << what;
      EXPECT_EQ(ref.informed_at, soa.informed_at) << what;
      EXPECT_EQ(ref.outcome, soa.outcome) << what;
    }
  }
}

TEST(EngineDifferentialTest, CalendarFarWakesAndRecoveries) {
  // The soa engine's quiescence calendar must hold wakes far ahead: with
  // r + 1 = 150, every round-robin turn, every interleaved even-step slot,
  // and most Select-and-Send presence slots lie 100+ steps out. The retain
  // leg crashes nodes for 90 steps, so they sit out wakes and must be
  // asked again when they recover.
  rng topo_gen(331);
  const graph g = make_random_tree(150, topo_gen);
  const fault_factory retain = [] {
    fault::recovery_options o;
    o.schedule = {{3, 2}, {17, 40}, {60, 90}, {101, 160}, {140, 400}};
    o.mode = fault::recovery_mode::retain;
    o.downtime = 90;
    return std::make_unique<fault::recovery_model>(o);
  };
  for (const std::string proto_name :
       {"round-robin", "interleaved", "select-and-send"}) {
    const auto proto = make_protocol(proto_name, g.node_count() - 1);
    expect_engines_agree(g, *proto, nullptr, 0, "tree150/" + proto_name);
    expect_engines_agree(g, *proto, retain, 0,
                         "tree150/retain/" + proto_name);
  }
}

TEST(EngineDifferentialTest, VirtualViewOnSoa) {
  // The soa loop never polls a dormant node, so a traits_node first hears
  // a message in a step in which its on_step did not run: the adapter must
  // run begin_step from on_receive itself (Interleaved's on_receive reads
  // the step hoists). The view hides next_poll too, so this is the plain
  // awake-list walk with every awake node polled. verify_sleepers also
  // sweeps the dormant traits_nodes.
  rng topo_gen(337);
  const graph g = make_gnp_connected(24, 0.15, topo_gen);
  for (const std::string proto_name :
       {"decay", "kp-doubling", "select-and-send", "interleaved"}) {
    const auto proto = make_protocol(proto_name, g.node_count() - 1);
    const virtual_view view(*proto);
    const engine_observation ref =
        observe(g, *proto, step_engine::reference, nullptr, 0);
    const engine_observation virt =
        observe(g, view, step_engine::soa, nullptr, 0);
    expect_observations_equal(ref, virt,
                              "gnp24/" + proto_name + "/virtual-soa");
  }
}

TEST(EngineDifferentialTest, AcrossParallelExecutor) {
  // The engine choice must thread through parallel_run_trials' shard
  // workers: 4-thread soa == 4-thread reference == serial reference.
  rng topo_gen(313);
  const graph g = make_gnp_connected(24, 0.15, topo_gen);
  const auto proto = make_protocol("decay", g.node_count() - 1);
  const fault_factory crash = [] {
    fault::crash_options o;
    o.crash_probability = 0.002;
    return std::make_unique<fault::crash_model>(o);
  };
  expect_engines_agree(g, *proto, nullptr, 4, "parallel4/faultfree");
  expect_engines_agree(g, *proto, crash, 4, "parallel4/crash");
}

}  // namespace
}  // namespace radiocast
