// Chaos harness implementation. Three layers:
//
//   * verify_one_engine — the trace oracle: replays the run's trace against
//     an independently maintained model of the radio semantics (arrival
//     counting over the replayed crash/down state) and a fresh clone of the
//     fault model (begin_run + begin_step per step reproduces the fault
//     schedule; see the header on why that is sound);
//   * check_scenario — runs the reference engine and two soa legs (serial,
//     and intra-step-sharded when the protocol has an SoA form), plus the
//     fault-free twin for zero-intensity scenarios, feeds each trace
//     through the oracle, and demands byte-identity across engines;
//   * run_chaos — the seeded sampler: graph family × protocol × stacked
//     fault models × step cap, with greedy minimization of failures.
#include "fault/chaos.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "core/runner.h"
#include "fault/churn.h"
#include "fault/crash.h"
#include "fault/jammer.h"
#include "fault/loss.h"
#include "fault/partition.h"
#include "fault/recovery.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace radiocast::fault {

namespace {

/// Scenario-sampling salt: keeps the sampler's stream independent of every
/// fault model's stream and of the per-node protocol generators.
constexpr std::uint64_t kScenarioSalt = 0x5eedc4a050000003ULL;

/// Cap on STORED violation details; counts stay exact past it.
constexpr std::size_t kMaxStoredViolations = 24;

std::size_t iidx(chaos_invariant inv) { return static_cast<std::size_t>(inv); }

/// Count/fail recorder with the "count before fail" discipline: every fail
/// call site counts at least as many checks, so violations ≤ checks holds
/// per invariant (validate_chaos_report enforces it on reports).
class checker {
 public:
  explicit checker(scenario_check_result* out) : out_(out) {}

  void set_prefix(const char* prefix) { prefix_ = prefix; }

  void count(chaos_invariant inv, std::int64_t k = 1) {
    out_->checks[iidx(inv)] += k;
  }

  void fail(chaos_invariant inv, const std::string& detail) {
    ++out_->violation_counts[iidx(inv)];
    if (out_->violations.size() < kMaxStoredViolations) {
      out_->violations.push_back({inv, prefix_ + detail});
    }
  }

 private:
  scenario_check_result* out_;
  std::string prefix_;
};

/// Sorted-vector edge set: deterministic, and no unordered-container
/// iteration surface for static analysis (rule R3) to worry about. Keys match
/// the simulator's normalization (undirected edges are stored u ≤ v).
class edge_set {
 public:
  explicit edge_set(bool directed) : directed_(directed) {}

  bool insert(node_id a, node_id b) {
    const std::uint64_t k = key(a, b);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
    if (it != keys_.end() && *it == k) return false;
    keys_.insert(it, k);
    return true;
  }

  bool erase(node_id a, node_id b) {
    const std::uint64_t k = key(a, b);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
    if (it == keys_.end() || *it != k) return false;
    keys_.erase(it);
    return true;
  }

  bool contains(node_id a, node_id b) const {
    if (keys_.empty()) return false;
    const std::uint64_t k = key(a, b);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
    return it != keys_.end() && *it == k;
  }

 private:
  std::uint64_t key(node_id a, node_id b) const {
    if (!directed_ && a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  bool directed_;
  std::vector<std::uint64_t> keys_;
};

/// One begin-step fault effect, in the simulator's application order.
/// what: 0 crash, 1 recover (b = amnesia flag), 2 edge_down, 3 edge_up
/// (b = the other endpoint, in the model's buffer order).
struct fault_ev {
  int what = 0;
  node_id a = -1;
  node_id b = -1;

  friend bool operator==(const fault_ev&, const fault_ev&) = default;
};

std::string fault_ev_str(const fault_ev& e) {
  static const char* const kNames[] = {"crash", "recover", "edge_down",
                                       "edge_up"};
  std::ostringstream os;
  os << kNames[e.what] << "(" << e.a;
  if (e.what != 0) os << "," << e.b;
  os << ")";
  return os.str();
}

bool is_fault_event(trace_event::type t) {
  return t == trace_event::type::crash || t == trace_event::type::recover ||
         t == trace_event::type::edge_down || t == trace_event::type::edge_up;
}

/// The trace oracle: validates one engine's trace + run_result against the
/// radio semantics and (when the model is cloneable) an independent replay
/// of the fault schedule. `model` null ⇒ the run was fault-free.
void verify_one_engine(const graph& g, fault_model* model, std::uint64_t seed,
                       std::int64_t max_steps,
                       const std::vector<trace_event>& events,
                       const run_result& res, checker* chk) {
  const node_id n = g.node_count();
  const auto ns = static_cast<std::size_t>(n);
  const auto idx = [](node_id v) { return static_cast<std::size_t>(v); };
  const auto at_step = [](std::int64_t step, const std::string& what) {
    return "step " + std::to_string(step) + ": " + what;
  };

  // Replay clone: the ground truth for crash/down state. A model whose
  // begin_run fails to reset state, or whose schedule depends on anything
  // but (seed, graph, step), diverges from its own trace here.
  std::unique_ptr<fault_model> replay;
  if (model != nullptr) {
    replay = model->clone();
    if (replay != nullptr) replay->begin_run({&g, seed, max_steps});
  }
  const bool replay_active = replay != nullptr || model == nullptr;

  // Oracle state, mirrored off the replay schedule (or, for a
  // non-cloneable model, off the trace's own fault events).
  std::vector<std::int64_t> informed_at(ns, -1);
  informed_at[0] = 0;
  util::bitset crashed;  // step_view::crashed is the packed mask form
  crashed.assign(ns, false);
  std::vector<std::uint8_t> received_any(ns, 0);
  std::vector<std::int64_t> tx_stamp(ns, -1), arr_stamp(ns, -1),
      resolved(ns, -1), last_rx(ns, -1);
  std::vector<int> arrivals(ns, 0);
  std::vector<std::int64_t> tx_per_node(ns, 0);
  edge_set down(g.is_directed());
  std::vector<node_id> tx_list, touched;
  step_faults buf;

  const auto apply_crash = [&](node_id v) { crashed.set(idx(v)); };
  const auto apply_recover = [&](node_id v, bool amnesia) {
    crashed.reset(idx(v));
    if (amnesia) {
      received_any[idx(v)] = 0;
      if (v != 0 && informed_at[idx(v)] != -1) informed_at[idx(v)] = -1;
    }
  };

  std::int64_t total_tx = 0, total_rx = 0, total_coll = 0, total_drop = 0,
               total_crash = 0, total_rec = 0, total_churn = 0;

  std::size_t pos = 0;
  for (std::int64_t step = 0; step < res.steps; ++step) {
    // --- Begin-step faults: expected (from replay) vs recorded. ---
    std::vector<fault_ev> expected;
    if (replay != nullptr) {
      buf.clear();
      const step_view view{step, &g, &informed_at, &crashed};
      replay->begin_step(view, &buf);
      // Idempotent application, exactly like the simulator's: only
      // effective transitions produce events.
      for (const node_id v : buf.crashes) {
        if (v < 0 || v >= n || crashed.test(idx(v))) continue;
        apply_crash(v);
        expected.push_back({0, v, 0});
      }
      for (const node_recovery& r : buf.recoveries) {
        const node_id v = r.node;
        if (v < 0 || v >= n || !crashed.test(idx(v))) continue;
        apply_recover(v, r.amnesia);
        expected.push_back({1, v, r.amnesia ? node_id{1} : node_id{0}});
      }
      for (const auto& [u, v] : buf.edges_down) {
        if (down.insert(u, v)) expected.push_back({2, u, v});
      }
      for (const auto& [u, v] : buf.edges_up) {
        if (down.erase(u, v)) expected.push_back({3, u, v});
      }
    }
    std::vector<fault_ev> got;
    while (pos < events.size() && events[pos].step == step &&
           is_fault_event(events[pos].what)) {
      const trace_event& e = events[pos++];
      switch (e.what) {
        case trace_event::type::crash:
          got.push_back({0, e.node, 0});
          ++total_crash;
          break;
        case trace_event::type::recover:
          got.push_back({1, e.node, e.msg.a != 0 ? node_id{1} : node_id{0}});
          ++total_rec;
          break;
        case trace_event::type::edge_down:
          got.push_back({2, e.node, static_cast<node_id>(e.msg.a)});
          ++total_churn;
          break;
        default:  // edge_up (is_fault_event admits nothing else)
          got.push_back({3, e.node, static_cast<node_id>(e.msg.a)});
          ++total_churn;
          break;
      }
    }
    if (replay_active) {
      const std::size_t longest = std::max(expected.size(), got.size());
      chk->count(chaos_invariant::fault_schedule_replay,
                 static_cast<std::int64_t>(longest) + 1);
      for (std::size_t i = 0; i < longest; ++i) {
        if (i >= expected.size()) {
          chk->fail(chaos_invariant::fault_schedule_replay,
                    at_step(step, "trace has unexpected fault event " +
                                      fault_ev_str(got[i])));
        } else if (i >= got.size()) {
          chk->fail(chaos_invariant::fault_schedule_replay,
                    at_step(step, "trace is missing fault event " +
                                      fault_ev_str(expected[i])));
        } else if (!(expected[i] == got[i])) {
          chk->fail(chaos_invariant::fault_schedule_replay,
                    at_step(step, "expected " + fault_ev_str(expected[i]) +
                                      ", trace has " + fault_ev_str(got[i])));
        }
      }
    } else {
      // Non-cloneable model: no independent schedule — trust the trace and
      // mirror its fault events into the oracle state.
      for (const fault_ev& e : got) {
        if (e.a < 0 || e.a >= n) continue;
        switch (e.what) {
          case 0: apply_crash(e.a); break;
          case 1: apply_recover(e.a, e.b != 0); break;
          case 2: down.insert(e.a, e.b); break;
          default: down.erase(e.a, e.b); break;
        }
      }
    }

    // --- Phase 1: transmit events. ---
    tx_list.clear();
    while (pos < events.size() && events[pos].step == step &&
           events[pos].what == trace_event::type::transmit) {
      const trace_event& e = events[pos++];
      const node_id v = e.node;
      ++total_tx;
      chk->count(chaos_invariant::fault_accounting);
      if (v < 0 || v >= n) {
        chk->fail(chaos_invariant::fault_accounting,
                  at_step(step, "transmit by out-of-range node " +
                                    std::to_string(v)));
        continue;
      }
      chk->count(chaos_invariant::no_delivery_to_crashed);
      if (crashed.test(idx(v))) {
        chk->fail(chaos_invariant::no_delivery_to_crashed,
                  at_step(step,
                          "crashed node " + std::to_string(v) + " transmitted"));
      }
      chk->count(chaos_invariant::no_spontaneous_transmission);
      if (v != 0 && received_any[idx(v)] == 0) {
        chk->fail(chaos_invariant::no_spontaneous_transmission,
                  at_step(step, "node " + std::to_string(v) +
                                    " transmitted without ever receiving"));
      }
      chk->count(chaos_invariant::fault_accounting, 2);
      if (tx_stamp[idx(v)] == step) {
        chk->fail(chaos_invariant::fault_accounting,
                  at_step(step, "duplicate transmit by node " +
                                    std::to_string(v)));
        continue;
      }
      if (e.msg.from != v) {
        chk->fail(chaos_invariant::fault_accounting,
                  at_step(step, "transmit label " + std::to_string(e.msg.from) +
                                    " != node " + std::to_string(v) +
                                    " (identity labeling required)"));
      }
      tx_stamp[idx(v)] = step;
      ++tx_per_node[idx(v)];
      tx_list.push_back(v);
    }

    // --- Arrival counting over the replayed crash/down state: crashed
    // listeners hear nothing; down edges carry no signal either way. ---
    touched.clear();
    for (const node_id t : tx_list) {
      for (const node_id v : g.out_neighbors(t)) {
        if (crashed.test(idx(v))) continue;
        if (down.contains(t, v)) continue;
        if (arr_stamp[idx(v)] != step) {
          arr_stamp[idx(v)] = step;
          arrivals[idx(v)] = 0;
          touched.push_back(v);
        }
        ++arrivals[idx(v)];
      }
    }

    // --- Phase 2: resolution events (collision / receive / drop /
    // informed, in the simulator's interleaving). ---
    while (pos < events.size() && events[pos].step == step) {
      const trace_event& e = events[pos++];
      const node_id v = e.node;
      chk->count(chaos_invariant::fault_accounting);
      if (v < 0 || v >= n) {
        chk->fail(chaos_invariant::fault_accounting,
                  at_step(step, "event for out-of-range node " +
                                    std::to_string(v)));
        continue;
      }
      const bool busy = tx_stamp[idx(v)] == step;
      const int arr = arr_stamp[idx(v)] == step ? arrivals[idx(v)] : 0;
      switch (e.what) {
        case trace_event::type::collision: {
          ++total_coll;
          resolved[idx(v)] = step;
          chk->count(chaos_invariant::no_delivery_to_crashed);
          if (crashed.test(idx(v))) {
            chk->fail(chaos_invariant::no_delivery_to_crashed,
                      at_step(step, "collision observed by crashed node " +
                                        std::to_string(v)));
          }
          chk->count(chaos_invariant::exactly_one_transmitter);
          if (busy) {
            chk->fail(chaos_invariant::exactly_one_transmitter,
                      at_step(step, "transmitting node " + std::to_string(v) +
                                        " observed a collision"));
          } else if (arr < 2) {
            chk->fail(chaos_invariant::exactly_one_transmitter,
                      at_step(step, "collision at node " + std::to_string(v) +
                                        " with " + std::to_string(arr) +
                                        " arrivals"));
          }
          break;
        }
        case trace_event::type::receive:
        case trace_event::type::drop: {
          const bool is_drop = e.what == trace_event::type::drop;
          if (is_drop) {
            ++total_drop;
          } else {
            ++total_rx;
          }
          resolved[idx(v)] = step;
          const node_id s = e.msg.from;
          chk->count(chaos_invariant::no_delivery_to_crashed);
          if (crashed.test(idx(v))) {
            chk->fail(chaos_invariant::no_delivery_to_crashed,
                      at_step(step, "delivery to crashed node " +
                                        std::to_string(v)));
          }
          chk->count(chaos_invariant::exactly_one_transmitter);
          if (s < 0 || s >= n || tx_stamp[idx(s)] != step) {
            chk->fail(chaos_invariant::exactly_one_transmitter,
                      at_step(step, "delivery to node " + std::to_string(v) +
                                        " from " + std::to_string(s) +
                                        ", which did not transmit"));
            break;
          }
          chk->count(chaos_invariant::no_delivery_to_crashed);
          if (crashed.test(idx(s))) {
            chk->fail(chaos_invariant::no_delivery_to_crashed,
                      at_step(step, "delivery from crashed node " +
                                        std::to_string(s)));
          }
          chk->count(chaos_invariant::no_delivery_over_down_edge);
          if (!g.has_edge(s, v)) {
            chk->fail(chaos_invariant::no_delivery_over_down_edge,
                      at_step(step, "delivery over non-edge " +
                                        std::to_string(s) + "->" +
                                        std::to_string(v)));
          } else if (down.contains(s, v)) {
            chk->fail(chaos_invariant::no_delivery_over_down_edge,
                      at_step(step, "delivery over down edge " +
                                        std::to_string(s) + "->" +
                                        std::to_string(v)));
          }
          chk->count(chaos_invariant::exactly_one_transmitter);
          if (busy) {
            chk->fail(chaos_invariant::exactly_one_transmitter,
                      at_step(step, "busy transmitter " + std::to_string(v) +
                                        " received"));
          } else if (arr != 1) {
            chk->fail(chaos_invariant::exactly_one_transmitter,
                      at_step(step, "delivery to node " + std::to_string(v) +
                                        " with " + std::to_string(arr) +
                                        " arrivals"));
          }
          if (is_drop) {
            chk->count(chaos_invariant::fault_accounting);
            if (model == nullptr) {
              chk->fail(chaos_invariant::fault_accounting,
                        at_step(step, "drop event in a fault-free run"));
            }
          } else {
            last_rx[idx(v)] = step;
            received_any[idx(v)] = 1;
          }
          break;
        }
        case trace_event::type::informed: {
          chk->count(chaos_invariant::informed_monotone, 2);
          if (informed_at[idx(v)] != -1) {
            chk->fail(chaos_invariant::informed_monotone,
                      at_step(step, "node " + std::to_string(v) +
                                        " re-informed without an amnesia "
                                        "eviction"));
          } else {
            informed_at[idx(v)] = step;
          }
          if (last_rx[idx(v)] != step) {
            chk->fail(chaos_invariant::informed_monotone,
                      at_step(step, "node " + std::to_string(v) +
                                        " informed without a same-step "
                                        "delivery"));
          }
          break;
        }
        default:  // a fault or transmit event after resolution began
          chk->count(chaos_invariant::fault_accounting);
          chk->fail(chaos_invariant::fault_accounting,
                    at_step(step, "misordered event in resolution phase"));
          break;
      }
    }

    // --- Every surviving arrival must have been resolved: a delivery, a
    // drop, or an observed collision. ---
    for (const node_id v : touched) {
      if (tx_stamp[idx(v)] == step) continue;  // busy transmitting
      chk->count(chaos_invariant::exactly_one_transmitter);
      if (resolved[idx(v)] != step) {
        chk->fail(chaos_invariant::exactly_one_transmitter,
                  at_step(step, "arrival at node " + std::to_string(v) +
                                    " (" + std::to_string(arrivals[idx(v)]) +
                                    " transmitters) left unresolved"));
      }
    }
  }

  chk->count(chaos_invariant::fault_accounting);
  if (pos != events.size()) {
    chk->fail(chaos_invariant::fault_accounting,
              std::to_string(events.size() - pos) +
                  " trace events beyond the final step");
  }

  // --- Conservation: result counters == trace event totals. ---
  const auto acc_eq = [&](std::int64_t from_trace, std::int64_t from_result,
                          const char* what) {
    chk->count(chaos_invariant::fault_accounting);
    if (from_trace != from_result) {
      chk->fail(chaos_invariant::fault_accounting,
                std::string(what) + ": trace total " +
                    std::to_string(from_trace) + " != result " +
                    std::to_string(from_result));
    }
  };
  acc_eq(total_tx, res.transmissions, "transmissions");
  acc_eq(total_rx, res.deliveries, "deliveries");
  acc_eq(total_coll, res.collisions, "collisions");
  acc_eq(total_drop, res.suppressed_deliveries, "suppressed_deliveries");
  acc_eq(total_crash, res.crashed_nodes, "crashed_nodes");
  acc_eq(total_rec, res.recoveries, "recoveries");
  acc_eq(total_churn, res.churned_edges, "churned_edges");
  chk->count(chaos_invariant::fault_accounting, 2);
  if (informed_at != res.informed_at) {
    chk->fail(chaos_invariant::fault_accounting,
              "informed_at vector != trace-derived informed history");
  }
  if (tx_per_node != res.transmissions_per_node) {
    chk->fail(chaos_invariant::fault_accounting,
              "transmissions_per_node != trace-derived per-node counts");
  }

  // --- Completion semantics. ---
  chk->count(chaos_invariant::completion_semantics);
  if (res.completed) {
    for (node_id v = 0; v < n; ++v) {
      if (crashed.test(idx(v))) continue;
      if (idx(v) < res.informed_at.size() && res.informed_at[idx(v)] == -1) {
        chk->fail(chaos_invariant::completion_semantics,
                  "completed with uninformed live node " + std::to_string(v));
        break;
      }
    }
  }
  if (replay != nullptr && res.completed) {
    chk->count(chaos_invariant::completion_semantics);
    if (replay->pending_recoveries() != 0) {
      chk->fail(chaos_invariant::completion_semantics,
                "completed while the model still owes " +
                    std::to_string(replay->pending_recoveries()) +
                    " recoveries");
    }
  }

  // Reachability recomputation over the final surviving graph (fault-free
  // completed runs take the simulator's BFS-free shortcut: n/n).
  std::int64_t reach = 0, inf_reach = 0;
  if (model == nullptr && res.completed) {
    reach = n;
    inf_reach = n;
  } else if (!crashed.test(0)) {
    std::vector<std::uint8_t> seen(ns, 0);
    std::vector<node_id> order;
    seen[0] = 1;
    order.push_back(0);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const node_id u = order[head];
      for (const node_id v : g.out_neighbors(u)) {
        if (seen[idx(v)] != 0) continue;
        if (crashed.test(idx(v))) continue;
        if (down.contains(u, v)) continue;
        seen[idx(v)] = 1;
        order.push_back(v);
      }
    }
    reach = static_cast<std::int64_t>(order.size());
    for (const node_id v : order) {
      if (idx(v) < res.informed_at.size() && res.informed_at[idx(v)] != -1) {
        ++inf_reach;
      }
    }
  }
  chk->count(chaos_invariant::completion_semantics, 3);
  if (res.reachable_nodes != reach) {
    chk->fail(chaos_invariant::completion_semantics,
              "reachable_nodes " + std::to_string(res.reachable_nodes) +
                  " != recomputed " + std::to_string(reach));
  }
  if (res.informed_reachable != inf_reach) {
    chk->fail(chaos_invariant::completion_semantics,
              "informed_reachable " + std::to_string(res.informed_reachable) +
                  " != recomputed " + std::to_string(inf_reach));
  }
  run_outcome expect = run_outcome::stuck;
  if (res.completed) {
    expect = run_outcome::completed;
  } else if (model != nullptr && crashed.test(0)) {
    expect = run_outcome::source_lost;
  } else if (inf_reach == reach) {
    expect = run_outcome::unreachable;
  }
  if (res.outcome != expect) {
    chk->fail(chaos_invariant::completion_semantics,
              std::string("outcome ") + run_outcome_name(res.outcome) +
                  " != expected " + run_outcome_name(expect));
  }
}

/// Field-by-field run_result comparison (engine identity and the
/// zero-intensity twin share it, under different invariants).
void compare_results(const run_result& a, const run_result& b,
                     chaos_invariant inv, checker* chk) {
  const auto eq = [&](std::int64_t x, std::int64_t y, const char* field) {
    chk->count(inv);
    if (x != y) {
      chk->fail(inv, std::string(field) + " differs: " + std::to_string(x) +
                         " vs " + std::to_string(y));
    }
  };
  eq(a.completed ? 1 : 0, b.completed ? 1 : 0, "completed");
  eq(a.steps, b.steps, "steps");
  eq(a.informed_step, b.informed_step, "informed_step");
  eq(a.transmissions, b.transmissions, "transmissions");
  eq(a.collisions, b.collisions, "collisions");
  eq(a.deliveries, b.deliveries, "deliveries");
  eq(a.crashed_nodes, b.crashed_nodes, "crashed_nodes");
  eq(a.recoveries, b.recoveries, "recoveries");
  eq(a.suppressed_deliveries, b.suppressed_deliveries,
     "suppressed_deliveries");
  eq(a.churned_edges, b.churned_edges, "churned_edges");
  eq(a.reachable_nodes, b.reachable_nodes, "reachable_nodes");
  eq(a.informed_reachable, b.informed_reachable, "informed_reachable");
  chk->count(inv, 3);
  if (a.outcome != b.outcome) {
    chk->fail(inv, std::string("outcome differs: ") +
                       run_outcome_name(a.outcome) + " vs " +
                       run_outcome_name(b.outcome));
  }
  if (a.informed_at != b.informed_at) {
    chk->fail(inv, "informed_at vectors differ");
  }
  if (a.transmissions_per_node != b.transmissions_per_node) {
    chk->fail(inv, "transmissions_per_node vectors differ");
  }
}

/// Byte-level NDJSON comparison; on mismatch, reports the first line that
/// differs (truncated — the detail is a pointer, not a dump).
void compare_traces(const trace& a, const trace& b, chaos_invariant inv,
                    checker* chk) {
  std::ostringstream sa, sb;
  a.to_ndjson(sa);
  b.to_ndjson(sb);
  const std::string ja = sa.str(), jb = sb.str();
  chk->count(inv);
  if (ja == jb) return;
  std::istringstream la(ja), lb(jb);
  std::string linea, lineb;
  std::int64_t lineno = 0;
  while (true) {
    const bool ha = static_cast<bool>(std::getline(la, linea));
    const bool hb = static_cast<bool>(std::getline(lb, lineb));
    ++lineno;
    if (!ha && !hb) break;  // lengths equal yet strings differ — impossible
    if (!ha || !hb || linea != lineb) {
      const auto clip = [](std::string s) {
        if (s.size() > 96) s.resize(96);
        return s;
      };
      chk->fail(inv, "traces differ at line " + std::to_string(lineno) +
                         ": \"" + clip(ha ? linea : std::string("<end>")) +
                         "\" vs \"" + clip(hb ? lineb : std::string("<end>")) +
                         "\"");
      return;
    }
  }
  chk->fail(inv, "traces differ (no differing line found)");
}

// ---------------------------------------------------------------------------
// Scenario sampling.
// ---------------------------------------------------------------------------

/// One sampled fault-model configuration. kind: 0 crash, 1 loss,
/// 2 jam_oblivious, 3 jam_greedy, 4 churn, 5 recovery_retain,
/// 6 recovery_amnesia, 7 partition, 8 frontier_cut.
struct model_spec {
  int kind = 0;
  double p = 0.0;  ///< main probability knob (crash/loss/churn/toggle)
  int budget = 0;  ///< jammer / frontier-cut budget
  std::int64_t downtime = 0;
  double recovery_p = 0.0;
  std::int64_t period = 0;
  std::int64_t duration = 0;
  double fraction = 0.0;
};

constexpr int kSpecKinds = 9;

/// Zeroes every intensity knob so the model is a provable no-op (the
/// zero-intensity ≡ fault-free invariant).
void zero_spec(model_spec* s) {
  s->p = 0.0;
  s->budget = 0;
  s->period = 0;
}

model_spec sample_spec(rng* gen) {
  model_spec sp;
  sp.kind = static_cast<int>(gen->below(kSpecKinds));
  switch (sp.kind) {
    case 0:
      sp.p = 0.002 + gen->uniform01() * 0.02;
      break;
    case 1:
      sp.p = 0.05 + gen->uniform01() * 0.25;
      break;
    case 2:
      sp.budget = static_cast<int>(1 + gen->below(3));
      break;
    case 3:
      sp.budget = static_cast<int>(1 + gen->below(2));
      break;
    case 4:
      sp.p = 0.02 + gen->uniform01() * 0.15;
      break;
    case 5:
    case 6: {
      sp.p = 0.005 + gen->uniform01() * 0.03;
      if (gen->flip()) {
        sp.downtime = static_cast<std::int64_t>(2 + gen->below(12));
      } else {
        sp.recovery_p = 0.05 + gen->uniform01() * 0.3;
      }
      break;
    }
    case 7: {
      sp.p = gen->uniform01() * 0.05;
      sp.period = static_cast<std::int64_t>(16 + gen->below(48));
      sp.duration = static_cast<std::int64_t>(
          1 + gen->below(static_cast<std::uint64_t>(sp.period / 2)));
      sp.fraction = 0.15 + gen->uniform01() * 0.35;
      break;
    }
    default:
      sp.budget = static_cast<int>(1 + gen->below(2));
      break;
  }
  return sp;
}

std::unique_ptr<fault_model> make_spec_model(const model_spec& s) {
  switch (s.kind) {
    case 0: {
      crash_options o;
      o.crash_probability = s.p;
      return std::make_unique<crash_model>(o);
    }
    case 1: {
      loss_options o;
      o.drop_probability = s.p;
      return std::make_unique<loss_model>(o);
    }
    case 2:
    case 3: {
      jammer_options o;
      o.budget = s.budget;
      o.strategy = s.kind == 2 ? jam_strategy::oblivious_random
                               : jam_strategy::greedy_frontier;
      return std::make_unique<jammer_model>(o);
    }
    case 4: {
      churn_options o;
      o.toggle_probability = s.p;
      return std::make_unique<churn_model>(o);
    }
    case 5:
    case 6: {
      recovery_options o;
      o.crash_probability = s.p;
      o.mode = s.kind == 5 ? recovery_mode::retain : recovery_mode::amnesia;
      o.downtime = s.downtime;
      o.recovery_probability = s.recovery_p;
      return std::make_unique<recovery_model>(o);
    }
    case 7: {
      partition_options o;
      o.toggle_probability = s.p;
      o.period = s.period;
      o.duration = s.duration;
      o.island_fraction = s.fraction;
      return std::make_unique<partition_model>(o);
    }
    default: {
      frontier_cut_options o;
      o.budget_per_step = s.budget;
      o.spare_source = true;
      return std::make_unique<frontier_cut_model>(o);
    }
  }
}

std::string describe_spec(const model_spec& s) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  switch (s.kind) {
    case 0:
      os << "crash(p=" << s.p << ")";
      break;
    case 1:
      os << "loss(p=" << s.p << ")";
      break;
    case 2:
      os << "jam_oblivious(budget=" << s.budget << ")";
      break;
    case 3:
      os << "jam_greedy(budget=" << s.budget << ")";
      break;
    case 4:
      os << "churn(p=" << s.p << ")";
      break;
    case 5:
    case 6:
      os << (s.kind == 5 ? "recovery_retain" : "recovery_amnesia")
         << "(p=" << s.p << ",downtime=" << s.downtime
         << ",recover_p=" << s.recovery_p << ")";
      break;
    case 7:
      os << "partition(toggle=" << s.p << ",period=" << s.period
         << ",duration=" << s.duration << ",island=" << s.fraction << ")";
      break;
    default:
      os << "frontier_cut(budget=" << s.budget << ")";
      break;
  }
  return os.str();
}

struct scenario {
  graph g;
  std::string graph_desc;
  std::string proto;
  int known_d = -1;
  std::int64_t cap = 0;
  bool zero = false;
  std::vector<model_spec> specs;
};

std::string describe_scenario(const scenario& s) {
  std::ostringstream os;
  os << s.graph_desc << " proto=" << s.proto;
  if (s.known_d > 0) os << "(D=" << s.known_d << ")";
  os << " cap=" << s.cap;
  if (s.zero) os << " zero-intensity";
  os << " faults=[";
  for (std::size_t i = 0; i < s.specs.size(); ++i) {
    if (i != 0) os << "+";
    os << describe_spec(s.specs[i]);
  }
  os << "]";
  return os.str();
}

scenario sample_scenario(std::uint64_t seed, const chaos_options& opts) {
  rng gen(mix_seed(seed, kScenarioSalt));
  const std::uint64_t family = gen.below(8);
  const auto n = static_cast<node_id>(8 + gen.below(41));  // 8 … 48
  std::ostringstream gd;
  auto build = [&]() -> graph {
    switch (family) {
      case 0:
        gd << "path(n=" << n << ")";
        return make_path(n);
      case 1:
        gd << "cycle(n=" << n << ")";
        return make_cycle(n);
      case 2:
        gd << "star(n=" << n << ")";
        return make_star(n);
      case 3: {
        const node_id k = std::min<node_id>(n, 24);
        gd << "complete(n=" << k << ")";
        return make_complete(k);
      }
      case 4: {
        const auto rows = static_cast<node_id>(2 + gen.below(5));
        const auto cols = static_cast<node_id>(2 + gen.below(7));
        gd << "grid(" << rows << "x" << cols << ")";
        return make_grid(rows, cols);
      }
      case 5: {
        const double p = 0.08 + gen.uniform01() * 0.2;
        gd << "gnp(n=" << n << ")";
        return make_gnp_connected(n, p, gen);
      }
      case 6: {
        const auto spine = static_cast<node_id>(3 + gen.below(8));
        const auto legs = static_cast<node_id>(1 + gen.below(3));
        gd << "caterpillar(spine=" << spine << ",legs=" << legs << ")";
        return make_caterpillar(spine, legs);
      }
      default: {
        const int d = static_cast<int>(2 + gen.below(5));
        gd << "layered(n=" << n << ",D=" << d << ")";
        return make_complete_layered_uniform(n, d);
      }
    }
  };
  graph g = build();
  const node_id nn = g.node_count();

  scenario s{std::move(g), gd.str(), std::string{}, -1, 0, false, {}};
  // Every protocol here but the two KP variants carries a calendar hint
  // in its SoA traits (next_poll, sim/soa_engine.h): Decay's soa leg and
  // the token protocols' drive the quiescence calendar through every fault
  // family and sharded steps. Complete-Layered needs its own topology, so
  // only layered graphs draw it.
  static const char* const kProtocols[] = {
      "decay",           "kp",          "kp-doubling",     "round-robin",
      "select-and-send", "interleaved", "complete-layered"};
  s.proto = kProtocols[gen.below(family == 7 ? 7 : 6)];
  if (s.proto == "kp") s.known_d = static_cast<int>(nn);  // always ≥ D
  // Token protocols assume a crashed peer stays crashed or comes back with
  // its state; an amnesia restart mid-traversal may legitimately RC_CHECK
  // their state machines. They are paired with retain recoveries only.
  const bool token = s.proto == "select-and-send" ||
                     s.proto == "interleaved" ||
                     s.proto == "complete-layered";
  const std::int64_t caps[3] = {200, 600, opts.max_steps};
  s.cap = caps[gen.below(3)];
  s.zero = gen.uniform01() < 0.15;
  const std::size_t spec_count = 1 + gen.below(3);
  for (std::size_t i = 0; i < spec_count; ++i) {
    s.specs.push_back(sample_spec(&gen));
    if (token && s.specs.back().kind == 6) s.specs.back().kind = 5;
  }
  if (s.zero) {
    for (model_spec& sp : s.specs) zero_spec(&sp);
  }
  return s;
}

scenario_check_result run_scenario(const scenario& s, std::uint64_t seed) {
  const node_id nn = s.g.node_count();
  const std::unique_ptr<protocol> proto =
      make_protocol(s.proto, nn - 1, s.known_d);
  std::vector<std::unique_ptr<fault_model>> owned;
  std::vector<fault_model*> raw;
  owned.reserve(s.specs.size());
  for (const model_spec& sp : s.specs) {
    owned.push_back(make_spec_model(sp));
    raw.push_back(owned.back().get());
  }
  if (raw.size() == 1) {
    return check_scenario(s.g, *proto, raw[0], seed, s.cap, s.zero);
  }
  composite_fault_model comp(raw);
  return check_scenario(s.g, *proto, &comp, seed, s.cap, s.zero);
}

/// Greedy shrink: drop stacked models one at a time, then halve the step
/// cap, keeping every candidate that still fails under the same seed.
/// Bounded by a rerun budget so minimization cannot dominate the sweep.
bool minimize_scenario(scenario* s, scenario_check_result* r,
                       std::uint64_t seed) {
  bool shrank = false;
  int budget = 24;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    if (s->specs.size() > 1) {
      for (std::size_t i = 0; i < s->specs.size() && budget > 0; ++i) {
        scenario cand = *s;
        cand.specs.erase(cand.specs.begin() +
                         static_cast<std::ptrdiff_t>(i));
        --budget;
        scenario_check_result cr = run_scenario(cand, seed);
        if (!cr.ok()) {
          *s = std::move(cand);
          *r = std::move(cr);
          shrank = true;
          progress = true;
          break;
        }
      }
    }
    if (!progress && budget > 0 && s->cap > 64) {
      scenario cand = *s;
      cand.cap = std::max<std::int64_t>(64, s->cap / 2);
      --budget;
      scenario_check_result cr = run_scenario(cand, seed);
      if (!cr.ok()) {
        *s = std::move(cand);
        *r = std::move(cr);
        shrank = true;
        progress = true;
      }
    }
  }
  return shrank;
}

}  // namespace

const char* chaos_invariant_name(chaos_invariant inv) {
  switch (inv) {
    case chaos_invariant::exactly_one_transmitter:
      return "exactly_one_transmitter";
    case chaos_invariant::no_spontaneous_transmission:
      return "no_spontaneous_transmission";
    case chaos_invariant::no_delivery_to_crashed:
      return "no_delivery_to_crashed";
    case chaos_invariant::no_delivery_over_down_edge:
      return "no_delivery_over_down_edge";
    case chaos_invariant::informed_monotone:
      return "informed_monotone_mod_amnesia";
    case chaos_invariant::fault_schedule_replay:
      return "fault_schedule_replay";
    case chaos_invariant::fault_accounting:
      return "fault_accounting_conserved";
    case chaos_invariant::completion_semantics:
      return "completion_semantics";
    case chaos_invariant::engine_bit_identity:
      return "engine_bit_identity";
    case chaos_invariant::zero_intensity_identity:
      return "zero_intensity_identity";
  }
  return "unknown";
}

bool scenario_check_result::ok() const {
  for (const std::int64_t v : violation_counts) {
    if (v != 0) return false;
  }
  return true;
}

scenario_check_result check_scenario(const graph& g, const protocol& proto,
                                     fault_model* model, std::uint64_t seed,
                                     std::int64_t max_steps,
                                     bool zero_intensity,
                                     const soa_check_options& soa) {
  RC_REQUIRE(max_steps >= 1);
  scenario_check_result out;
  checker chk(&out);

  run_options opts;
  opts.max_steps = max_steps;
  opts.seed = seed;
  opts.faults = model;
  trace t1;
  opts.sink = &t1;
  opts.engine = step_engine::soa;
  opts.step_threads = 1;
  const run_result r1 = run_broadcast(g, proto, opts);
  trace tr;
  opts.sink = &tr;
  opts.engine = step_engine::reference;
  const run_result rr = run_broadcast(g, proto, opts);

  chk.set_prefix("soa: ");
  verify_one_engine(g, model, seed, max_steps, t1.events(), r1, &chk);
  chk.set_prefix("reference: ");
  verify_one_engine(g, model, seed, max_steps, tr.events(), rr, &chk);
  chk.set_prefix("engines: ");
  compare_results(r1, rr, chaos_invariant::engine_bit_identity, &chk);
  compare_traces(t1, tr, chaos_invariant::engine_bit_identity, &chk);

  // Third leg: the soa engine with intra-step sharding forced on (soa
  // defaults: 2 threads, grain 1), so the ordered phase merge
  // participates in the bit-identity contract on every sampled
  // scenario, not just at benchmark scale.
  run_options sopts;
  sopts.max_steps = max_steps;
  sopts.seed = seed;
  sopts.faults = model;
  trace ts;
  sopts.sink = &ts;
  sopts.engine = step_engine::soa;
  sopts.step_threads = soa.step_threads;
  sopts.step_shard_grain = soa.step_shard_grain;
  sopts.debug_unordered_merge = soa.debug_unordered_merge;
  const run_result rs = run_broadcast(g, proto, sopts);
  chk.set_prefix("soa(sharded): ");
  verify_one_engine(g, model, seed, max_steps, ts.events(), rs, &chk);
  chk.set_prefix("engines(sharded): ");
  compare_results(rs, rr, chaos_invariant::engine_bit_identity, &chk);
  compare_traces(ts, tr, chaos_invariant::engine_bit_identity, &chk);

  if (zero_intensity && model != nullptr) {
    run_options zopts;
    zopts.max_steps = max_steps;
    zopts.seed = seed;
    trace tz;
    zopts.sink = &tz;
    zopts.engine = step_engine::soa;
    zopts.step_threads = 1;
    const run_result rz = run_broadcast(g, proto, zopts);
    chk.set_prefix("zero-intensity: ");
    compare_results(r1, rz, chaos_invariant::zero_intensity_identity, &chk);
    compare_traces(t1, tz, chaos_invariant::zero_intensity_identity, &chk);
  }
  return out;
}

chaos_report run_chaos(const chaos_options& opts) {
  RC_REQUIRE(opts.runs >= 0);
  RC_REQUIRE(opts.max_steps >= 1);
  RC_REQUIRE(opts.max_recorded_failures >= 0);
  chaos_report rep;
  rep.config = opts;
  for (std::int64_t i = 0; i < opts.runs; ++i) {
    const std::uint64_t seed = opts.base_seed + static_cast<std::uint64_t>(i);
    scenario s = sample_scenario(seed, opts);
    scenario_check_result r = run_scenario(s, seed);
    ++rep.runs;
    for (int k = 0; k < kChaosInvariantCount; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      rep.invariants[ks].checks += r.checks[ks];
      rep.invariants[ks].violations += r.violation_counts[ks];
    }
    if (r.ok()) continue;
    ++rep.failed_runs;
    if (static_cast<int>(rep.failures.size()) >= opts.max_recorded_failures) {
      continue;
    }
    bool shrank = false;
    if (opts.minimize) shrank = minimize_scenario(&s, &r, seed);
    chaos_failure f;
    f.seed = seed;
    f.scenario = describe_scenario(s);
    f.minimized = shrank;
    if (!r.violations.empty()) {
      f.invariant = chaos_invariant_name(r.violations.front().invariant);
      f.detail = r.violations.front().detail;
    } else {
      for (int k = 0; k < kChaosInvariantCount; ++k) {
        if (r.violation_counts[static_cast<std::size_t>(k)] > 0) {
          f.invariant = chaos_invariant_name(static_cast<chaos_invariant>(k));
          break;
        }
      }
    }
    rep.failures.push_back(std::move(f));
  }
  return rep;
}

obs::json_value chaos_report::to_json() const {
  obs::json_value doc = obs::json_value::object();
  doc.set("schema", "radiocast.chaos.v1");
  obs::json_value cfg = obs::json_value::object();
  cfg.set("runs", config.runs);
  cfg.set("base_seed", static_cast<std::int64_t>(config.base_seed));
  cfg.set("max_steps", config.max_steps);
  cfg.set("max_recorded_failures", config.max_recorded_failures);
  cfg.set("minimize", config.minimize);
  doc.set("config", std::move(cfg));
  doc.set("runs", runs);
  doc.set("failed_runs", failed_runs);
  doc.set("ok", ok());
  obs::json_value invs = obs::json_value::array();
  for (int k = 0; k < kChaosInvariantCount; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    obs::json_value e = obs::json_value::object();
    e.set("invariant", chaos_invariant_name(static_cast<chaos_invariant>(k)));
    e.set("checks", invariants[ks].checks);
    e.set("violations", invariants[ks].violations);
    invs.push_back(std::move(e));
  }
  doc.set("invariants", std::move(invs));
  obs::json_value fails = obs::json_value::array();
  for (const chaos_failure& f : failures) {
    obs::json_value e = obs::json_value::object();
    e.set("seed", static_cast<std::int64_t>(f.seed));
    e.set("scenario", f.scenario);
    e.set("invariant", f.invariant);
    e.set("detail", f.detail);
    e.set("minimized", f.minimized);
    fails.push_back(std::move(e));
  }
  doc.set("failures", std::move(fails));
  return doc;
}

bool validate_chaos_report(const obs::json_value& doc,
                           std::vector<std::string>* errors) {
  bool ok = true;
  const auto err = [&](const std::string& m) {
    ok = false;
    if (errors != nullptr) errors->push_back(m);
  };
  if (!doc.is_object()) {
    err("chaos report: not a JSON object");
    return false;
  }
  const obs::json_value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "radiocast.chaos.v1") {
    err("schema: missing or not \"radiocast.chaos.v1\"");
  }
  const auto int_field = [&](const obs::json_value& parent, const char* key,
                             const std::string& where) -> std::optional<std::int64_t> {
    const obs::json_value* f = parent.find(key);
    if (f == nullptr || f->type() != obs::json_value::kind::integer) {
      err(where + key + ": missing or not an integer");
      return std::nullopt;
    }
    return f->as_int();
  };

  const std::optional<std::int64_t> runs = int_field(doc, "runs", "");
  const std::optional<std::int64_t> failed = int_field(doc, "failed_runs", "");
  if (runs.has_value() && *runs < 0) err("runs: negative");
  if (failed.has_value() && *failed < 0) err("failed_runs: negative");
  if (runs.has_value() && failed.has_value() && *failed > *runs) {
    err("failed_runs exceeds runs");
  }
  const obs::json_value* okf = doc.find("ok");
  if (okf == nullptr || okf->type() != obs::json_value::kind::boolean) {
    err("ok: missing or not a boolean");
  } else if (failed.has_value() && okf->as_bool() != (*failed == 0)) {
    err("ok flag inconsistent with failed_runs");
  }

  const obs::json_value* cfg = doc.find("config");
  if (cfg == nullptr || !cfg->is_object()) {
    err("config: missing or not an object");
  } else {
    const std::optional<std::int64_t> base =
        int_field(*cfg, "base_seed", "config.");
    if (base.has_value() && *base < 0) err("config.base_seed: negative");
    (void)int_field(*cfg, "runs", "config.");
    const std::optional<std::int64_t> cap =
        int_field(*cfg, "max_steps", "config.");
    if (cap.has_value() && *cap < 1) err("config.max_steps: must be >= 1");
  }

  std::int64_t total_violations = 0;
  const obs::json_value* invs = doc.find("invariants");
  if (invs == nullptr || !invs->is_array()) {
    err("invariants: missing or not an array");
  } else {
    if (invs->items().size() !=
        static_cast<std::size_t>(kChaosInvariantCount)) {
      err("invariants: expected exactly " +
          std::to_string(kChaosInvariantCount) + " entries, found " +
          std::to_string(invs->items().size()));
    }
    std::vector<std::string> seen;
    for (const obs::json_value& e : invs->items()) {
      if (!e.is_object()) {
        err("invariants[]: entry is not an object");
        continue;
      }
      const obs::json_value* name = e.find("invariant");
      std::string tag = "<unnamed>";
      if (name == nullptr || !name->is_string()) {
        err("invariants[]: missing invariant name");
      } else {
        tag = name->as_string();
        bool known = false;
        for (int k = 0; k < kChaosInvariantCount; ++k) {
          if (tag == chaos_invariant_name(static_cast<chaos_invariant>(k))) {
            known = true;
            break;
          }
        }
        if (!known) err("invariants[]: unknown invariant \"" + tag + "\"");
        if (std::find(seen.begin(), seen.end(), tag) != seen.end()) {
          err("invariants[]: duplicate invariant \"" + tag + "\"");
        }
        seen.push_back(tag);
      }
      const std::optional<std::int64_t> checks =
          int_field(e, "checks", "invariants[" + tag + "].");
      const std::optional<std::int64_t> viols =
          int_field(e, "violations", "invariants[" + tag + "].");
      if (checks.has_value() && *checks < 0) {
        err("invariants[" + tag + "].checks: negative");
      }
      if (viols.has_value()) {
        if (*viols < 0) err("invariants[" + tag + "].violations: negative");
        total_violations += std::max<std::int64_t>(*viols, 0);
        if (checks.has_value() && *viols > *checks) {
          err("invariants[" + tag + "]: violations exceed checks");
        }
      }
    }
    if (failed.has_value()) {
      if (total_violations == 0 && *failed != 0) {
        err("failed_runs > 0 but no invariant reports violations");
      }
      if (total_violations != 0 && *failed == 0) {
        err("invariant violations reported but failed_runs == 0");
      }
    }
  }

  const obs::json_value* fails = doc.find("failures");
  if (fails == nullptr || !fails->is_array()) {
    err("failures: missing or not an array");
  } else {
    if (failed.has_value() &&
        static_cast<std::int64_t>(fails->items().size()) > *failed) {
      err("failures: more recorded failures than failed_runs");
    }
    for (const obs::json_value& e : fails->items()) {
      if (!e.is_object()) {
        err("failures[]: entry is not an object");
        continue;
      }
      const std::optional<std::int64_t> seedv =
          int_field(e, "seed", "failures[].");
      if (seedv.has_value() && *seedv < 0) err("failures[].seed: negative");
      for (const char* key : {"scenario", "invariant", "detail"}) {
        const obs::json_value* f = e.find(key);
        if (f == nullptr || !f->is_string()) {
          err(std::string("failures[].") + key + ": missing or not a string");
        }
      }
      const obs::json_value* inv = e.find("invariant");
      if (inv != nullptr && inv->is_string()) {
        bool known = false;
        for (int k = 0; k < kChaosInvariantCount; ++k) {
          if (inv->as_string() ==
              chaos_invariant_name(static_cast<chaos_invariant>(k))) {
            known = true;
            break;
          }
        }
        if (!known) {
          err("failures[].invariant: unknown \"" + inv->as_string() + "\"");
        }
      }
      const obs::json_value* mini = e.find("minimized");
      if (mini == nullptr ||
          mini->type() != obs::json_value::kind::boolean) {
        err("failures[].minimized: missing or not a boolean");
      }
    }
  }
  return ok;
}

}  // namespace radiocast::fault
