// Shared step-engine core (CRTP): setup, fault application, reception
// resolution, metrics, completion — everything a broadcast run needs except
// the protocol-state representation and phase-1 stepping strategy.
//
// One run derives from run_base: the templated soa_run
// (sim/soa_engine.h), whose per-node state is a contiguous POD array — a
// traits protocol's own state, or, under virtual_view, a node index into
// the inner protocol's node_bank. It runs both step loops: run_reference
// below, and its own walk over the awake mask (or the quiescence calendar)
// with phases that can shard across a thread pool.
// The derived class provides the protocol hooks (proto_begin_step,
// proto_step, proto_receive, proto_informed, proto_halted, proto_restart),
// node construction (init_nodes), and the step loop (run_engine);
// EVERYTHING else — fault injection sites, collision/delivery resolution in
// touched order, trace event ordering, per-step metrics, the outcome BFS —
// is this one body of code. That is what makes the differential suite
// meaningful: the two engines can only disagree in the parts that actually
// differ.
//
// The base owns the per-node RNG pool (`gens_`, split from the root seed in
// node order 0…n−1) so every engine draws the identical per-node streams.
#pragma once

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_model.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/protocol.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace radiocast::detail {

// The labelling of an n-node run with label bound r: `given`
// (run_options::labels), or node ids when it is empty. Checked to cover
// every node with distinct labels in [0, r], the source carrying 0.
inline std::vector<node_id> resolve_labels(node_id n, node_id r,
                                           const std::vector<node_id>& given) {
  std::vector<node_id> labels = given;
  if (labels.empty()) {
    labels.resize(static_cast<std::size_t>(n));
    for (node_id v = 0; v < n; ++v) {
      labels[static_cast<std::size_t>(v)] = v;
    }
  }
  RC_REQUIRE_MSG(labels.size() == static_cast<std::size_t>(n),
                 "labels must cover every node");
  RC_REQUIRE_MSG(labels[0] == 0, "the source must carry label 0");
  std::vector<bool> seen(static_cast<std::size_t>(r) + 1, false);
  for (node_id label : labels) {
    RC_REQUIRE_MSG(label >= 0 && label <= r, "label out of range");
    RC_REQUIRE_MSG(!seen[static_cast<std::size_t>(label)],
                   "labels must be distinct");
    seen[static_cast<std::size_t>(label)] = true;
  }
  return labels;
}

// One listener's reception record for the step being resolved: how many
// transmitters it heard, and the last of them as an index into the step's
// transmitter list. Every record is all zero between steps —
// commit_receptions resets each record it resolves, and each transmitter's
// — so arrivals == 0 doubles as "not yet touched this step". Kept at 8
// bytes: an edge visit is one load and one store to it.
struct reception {
  int arrivals = 0;  // starts at kTransmitting while the node transmits
  node_id last_sender = 0;
};
static_assert(sizeof(reception) == 8);

// A transmitter's record before phase 2. A transmitter cannot receive, and
// a count that starts here stays below zero after any number of arrivals
// (an in-degree is below 2^31), so it never reads 0 and add_arrivals never
// lists a transmitter as touched.
inline constexpr int kTransmitting = std::numeric_limits<int>::min();

// Adds `k` arrivals from the transmitter at index i of the step's
// transmitter list to listener v. A first touch appends v to `out` without
// a branch: the slot out[nt] is written every time and kept only when v's
// record was empty, so `out` needs one slot past the node count. Returns
// the new cursor; callers keep it in a local and store it once per step.
// The reference loop, the serial and sharded phase 2, and the shard merge
// (k = a shard's count) all bump through here.
inline std::size_t add_arrivals(reception* rx, node_id* out, std::size_t nt,
                                node_id v, node_id i, int k) {
  const reception old = rx[static_cast<std::size_t>(v)];
  out[nt] = v;
  rx[static_cast<std::size_t>(v)] = {old.arrivals + k, i};
  return nt + static_cast<std::size_t>(old.arrivals == 0);
}

template <class Derived>
class run_base {
 public:
  run_result run() {
    derived().run_engine();
    finalize_outcome();
    return std::move(result_);
  }

 protected:
  run_base(const graph& g, node_id r, const run_options& opts)
      : g_(g), opts_(opts), n_(g.node_count()), faults_(opts.faults) {
    RC_REQUIRE_MSG(g.finalized(),
                   "run_broadcast requires a finalized graph — call "
                   "graph::finalize() after building (generators already do)");
    RC_REQUIRE(r >= n_ - 1);
    RC_REQUIRE(opts.max_steps >= 1);

    params_.r = r;
    // d_hint is a per-protocol construction choice, not a per-run one: the
    // protocol object bakes it into its traits (see kp_randomized).
    params_.d_hint = -1;
    labels_ = resolve_labels(n_, r, opts.labels);
  }

  // Second setup phase, called from the DERIVED constructor body (the base
  // constructor cannot call init_nodes — the derived members it populates
  // are not constructed yet). Splits the per-node generators from the root
  // seed in node order, builds the protocol state, and finishes the common
  // setup. The RNG stream is identical across engines by construction:
  // root.split() is called exactly n times, in node order, regardless of
  // how the derived class stores its nodes.
  void finish_setup(obs::span_profiler* profiler) {
    {
      obs::scoped_span setup_span(profiler, "setup");
      rng root(opts_.seed);
      gens_.reserve(static_cast<std::size_t>(n_));
      for (node_id v = 0; v < n_; ++v) {
        gens_.push_back(root.split());
      }
      received_any_.assign(static_cast<std::size_t>(n_), 0);
      derived().init_nodes(params_);
    }
    RC_CHECK_MSG(derived().proto_informed(0), "the source must start informed");

    if (opts_.sink != nullptr) {
      // Steady-state recording should not reallocate: reserve for the step
      // cap (a few events per step, clamped to keep pathological caps sane)
      // or the ring capacity, whichever binds.
      const auto cap_hint = static_cast<std::size_t>(std::min<std::int64_t>(
          opts_.max_steps * 2, std::int64_t{1} << 20));
      opts_.sink->reserve(cap_hint);
    }

    // Metrics: resolve every per-step series once, outside the loop. The
    // disabled path (metrics == nullptr) must cost one branch per site.
    if (opts_.metrics != nullptr) {
      sr_frontier_ = &opts_.metrics->get_series("sim.informed_frontier");
      sr_awake_ = &opts_.metrics->get_series("sim.awake");
      sr_tx_ = &opts_.metrics->get_series("sim.transmissions");
      sr_deliveries_ = &opts_.metrics->get_series("sim.deliveries");
      sr_collisions_ = &opts_.metrics->get_series("sim.collisions");
      sr_idle_ = &opts_.metrics->get_series("sim.idle_listeners");
      h_tx_per_step_ =
          &opts_.metrics->get_histogram("sim.transmitters_per_step");
      // Fault series only exist for fault-injected runs, so fault-free
      // metric exports keep their exact pre-fault shape.
      if (faults_ != nullptr) {
        sr_f_crashed_ = &opts_.metrics->get_series("sim.fault.crashed_nodes");
        sr_f_recoveries_ = &opts_.metrics->get_series("sim.fault.recoveries");
        sr_f_suppressed_ = &opts_.metrics->get_series("sim.fault.suppressed");
        sr_f_down_edges_ = &opts_.metrics->get_series("sim.fault.down_edges");
      }
    }

    result_.informed_at.assign(static_cast<std::size_t>(n_), -1);
    result_.transmissions_per_node.assign(static_cast<std::size_t>(n_), 0);
    result_.informed_at[0] = 0;

    // Reception scratch: one zeroed record per listener, the touched list
    // with add_arrivals' slack slot, and room for every node to transmit.
    rx_.assign(static_cast<std::size_t>(n_), reception{});
    touched_.assign(static_cast<std::size_t>(n_) + 1, 0);
    transmitters_.reserve(static_cast<std::size_t>(n_));
    tx_msgs_.reserve(static_cast<std::size_t>(n_));

    // The awake set: source + every node that has received at least one
    // message, minus crashed nodes. The soa loop's polling walk reads the
    // mask's words in ascending order, the reference engine's 0…n−1 order.
    // Maintained by every engine — the reference loop ignores it but still
    // reports sim.awake.
    awake_.assign(static_cast<std::size_t>(n_), false);
    awake_.set(0);

    if (faults_ != nullptr) {
      crashed_.assign(static_cast<std::size_t>(n_), false);
      // Per-edge down mask over the flat CSR slots: the i-th out-neighbor
      // of u is down iff down_mask_.test(out_edge_base(u) + i). Sized once
      // from the graph; undirected edges mark both directions' slots.
      down_mask_.assign(g_.out_slot_count(), false);
      faults_->begin_run({&g_, opts_.seed, opts_.max_steps});
    }
  }

  Derived& derived() { return static_cast<Derived&>(*this); }

  static std::size_t idx(node_id v) { return static_cast<std::size_t>(v); }

  // Flat CSR slot of edge u→v (for the down mask). Churn events are rare
  // and every built-in model churns real edges only, so the linear row
  // scan off the hot path is cheaper than keeping a hash map around.
  std::size_t edge_slot(node_id u, node_id v) const {
    const auto row = g_.out_row(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] == v) return g_.out_edge_base(u) + i;
    }
    RC_CHECK_MSG(false, "fault model churned a non-edge (" +
                            std::to_string(u) + " -> " + std::to_string(v) +
                            ")");
    return 0;
  }

  // Applies one edge-churn transition to the slot mask. Returns false for
  // idempotent no-ops (downing a down edge, restoring an up one) so the
  // caller counts each LOGICAL transition once — matching the old
  // normalized-key set's insert/erase result. Undirected edges flip the
  // slots of both directions together.
  bool set_edge_down(node_id u, node_id v, bool down) {
    const std::size_t s = edge_slot(u, v);
    if (down_mask_.test(s) == down) return false;
    if (down) {
      down_mask_.set(s);
      ++down_count_;
    } else {
      down_mask_.reset(s);
      --down_count_;
    }
    if (!g_.is_directed()) {
      const std::size_t t = edge_slot(v, u);
      if (down) {
        down_mask_.set(t);
      } else {
        down_mask_.reset(t);
      }
    }
    return true;
  }

  // Crashed nodes are exempt from both stop conditions: completion means
  // every *surviving* node is informed (resp. halted).
  bool all_halted() {
    for (node_id v = 0; v < n_; ++v) {
      if (faults_ != nullptr && crashed_.test(idx(v))) continue;
      if (!derived().proto_halted(v)) return false;
    }
    return true;
  }

  // radiocast-analyze: hot-path-begin -- everything from here through
  // run_reference() executes once per step (or per node per step); no
  // allocation, formatting, throwing, or stream I/O (RC_* args exempt).

  // Injection site 1: crash-stops, recoveries, and churn, applied at the
  // top of a step. A crash removes the node from the awake set
  // immediately, so phase 1 of this very step already skips it (matching
  // the reference engine's per-node crashed check); a recovery re-inserts
  // it, so phase 1 of this very step already includes it (matching the
  // reference engine, which steps every non-crashed node). Crashes are
  // applied before recoveries — a node both crashed and recovered in one
  // step's buffers ends the step alive.
  void apply_begin_step_faults(std::int64_t step) {
    step_faults_buf_.clear();
    const fault::step_view view{step, &g_, &result_.informed_at, &crashed_};
    faults_->begin_step(view, &step_faults_buf_);
    for (const node_id v : step_faults_buf_.crashes) {
      RC_CHECK_MSG(v >= 0 && v < n_, "fault model crashed an unknown node");
      if (crashed_.test(idx(v))) continue;
      crashed_.set(idx(v));
      ++result_.crashed_nodes;
      if (result_.informed_at[idx(v)] == -1) {
        ++crashed_uninformed_;
      } else {
        ++crashed_informed_;
      }
      if (awake_.test(idx(v))) {
        awake_.reset(idx(v));
        --awake_count_;
      }
      if (opts_.sink != nullptr) {
        opts_.sink->record({step, trace_event::type::crash, v, {}});
      }
    }
    for (const fault::node_recovery& r : step_faults_buf_.recoveries) {
      apply_recovery(r, step);
    }
    for (const auto& [u, v] : step_faults_buf_.edges_down) {
      if (!set_edge_down(u, v, true)) continue;
      ++result_.churned_edges;
      if (opts_.sink != nullptr) {
        message m;
        m.a = v;
        opts_.sink->record({step, trace_event::type::edge_down, u, m});
      }
    }
    for (const auto& [u, v] : step_faults_buf_.edges_up) {
      if (!set_edge_down(u, v, false)) continue;
      ++result_.churned_edges;
      if (opts_.sink != nullptr) {
        message m;
        m.a = v;
        opts_.sink->record({step, trace_event::type::edge_up, u, m});
      }
    }
  }

  // A crashed node rejoins (fault/recovery.h). Retain mode: volatile state
  // survived — re-enter the awake set iff the node was awake before the
  // outage. Amnesia mode: the protocol's restart hook re-initializes the
  // node, and an informed non-source is EVICTED from the informed set — it
  // must be re-informed by a fresh delivery. The source keeps its own
  // message across any reboot.
  void apply_recovery(const fault::node_recovery& r, std::int64_t step) {
    const node_id v = r.node;
    RC_CHECK_MSG(v >= 0 && v < n_, "fault model recovered an unknown node");
    if (!crashed_.test(idx(v))) return;  // recovering a live node is a no-op
    crashed_.reset(idx(v));
    ++result_.recoveries;
    const bool was_informed = result_.informed_at[idx(v)] != -1;
    if (was_informed) {
      --crashed_informed_;
    } else {
      --crashed_uninformed_;
    }
    if (r.amnesia) {
      node_context ctx{step, &gens_[idx(v)], opts_.metrics};
      const rng before = gens_[idx(v)];
      derived().proto_restart(v, ctx);
      RC_CHECK_MSG(gens_[idx(v)] == before,
                   "on_restart drew randomness (node " + std::to_string(v) +
                       ", step " + std::to_string(step) + ")");
      RC_CHECK_MSG(derived().proto_informed(v) == (v == 0),
                   "on_restart left node " + std::to_string(v) +
                       " in the wrong informed state — does the traits' "
                       "on_restart reset it?");
      received_any_[idx(v)] = 0;
      if (was_informed && v != 0) {
        result_.informed_at[idx(v)] = -1;
        --informed_count_;
        // Full informing (if ever reached) was transient, not final.
        result_.informed_step = -1;
      }
    }
    // Awake ⇔ source or has received at least one (surviving) message.
    if ((v == 0 || received_any_[idx(v)] != 0) && !awake_.test(idx(v))) {
      awake_.set(idx(v));
      ++awake_count_;
    }
    if (opts_.sink != nullptr) {
      message m;
      m.a = r.amnesia ? 1 : 0;
      opts_.sink->record({step, trace_event::type::recover, v, m});
    }
  }

  // Phase-1 body shared by every engine: ask node v for its transmit
  // decision and record it, the message in tx_msgs_ beside v's entry in
  // transmitters_. `check_spontaneous` is compile-time so the soa walk
  // (where awake membership already implies the check) pays nothing for
  // it.
  template <bool check_spontaneous>
  void step_node(node_id v, std::int64_t step) {
    node_context ctx{step, &gens_[idx(v)], opts_.metrics};
    std::optional<message> decision = derived().proto_step(v, ctx);
    if (!decision) return;
    if constexpr (check_spontaneous) {
      RC_CHECK_MSG(v == 0 || received_any_[idx(v)] != 0,
                   "protocol bug: node " + std::to_string(v) +
                       " transmitted spontaneously at step " +
                       std::to_string(step));
    }
    decision->from = labels_[idx(v)];
    transmitters_.push_back(v);
    tx_msgs_.push_back(*decision);
    ++result_.transmissions_per_node[idx(v)];
    if (opts_.sink != nullptr) {
      opts_.sink->record({step, trace_event::type::transmit, v, *decision});
    }
  }

  // Debug sweep (run_options::verify_sleepers): the dormant-node contract
  // of sim/protocol.h, verified live. Every node the engine skipped gets an
  // on_step call anyway; transmitting, or touching its generator, is a
  // protocol bug. Word-at-a-time: a 64-node block that is entirely awake
  // or crashed is skipped with one OR + compare.
  void sweep_sleepers(std::int64_t step) {
    for (std::size_t w = 0; w < awake_.word_count(); ++w) {
      std::uint64_t skip = awake_.word(w);
      if (faults_ != nullptr) skip |= crashed_.word(w);
      if (w == 0) skip |= 1;  // the source (node 0) is never swept
      // Tail bits past n_ are zero in both masks, so ~skip raises them;
      // the v >= n_ break below retires them (bits ascend within a word).
      std::uint64_t rest = ~skip;
      while (rest != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(rest));
        rest &= rest - 1;
        const auto v = static_cast<node_id>(w * util::bitset::kWordBits + b);
        if (v >= n_) break;
        sweep_one(v, step);
      }
    }
  }

  // Calls f(v) for every awake node v, ascending, one mask word at a
  // time: the node order of the reference engine's 0…n−1 sweep.
  template <class F>
  void for_each_awake(F&& f) const {
    const auto words = awake_.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<node_id>(w * util::bitset::kWordBits +
                               static_cast<std::size_t>(
                                   std::countr_zero(bits))));
      }
    }
  }

  void sweep_one(node_id v, std::int64_t step) {
    const rng before = gens_[idx(v)];
    node_context ctx{step, &gens_[idx(v)], opts_.metrics};
    const std::optional<message> decision = derived().proto_step(v, ctx);
    RC_CHECK_MSG(!decision.has_value(),
                 "dormant-node contract violated: node " + std::to_string(v) +
                     " transmitted without ever receiving (step " +
                     std::to_string(step) + ")");
    RC_CHECK_MSG(gens_[idx(v)] == before,
                 "dormant-node contract violated: node " + std::to_string(v) +
                     " drew randomness while dormant (step " +
                     std::to_string(step) + ")");
  }

  // Delivers the message of transmitters_[i] to listener v.
  void deliver(node_id v, node_id i, std::int64_t step) {
    const message* delivered = &tx_msgs_[idx(i)];
    const bool was_informed = derived().proto_informed(v);
    node_context ctx{step, &gens_[idx(v)], opts_.metrics};
    derived().proto_receive(v, ctx, *delivered);
    received_any_[idx(v)] = 1;
    // Wake on the mask, not received_any: the source is awake from setup
    // yet receives its first reply mid-run, and must not be counted twice.
    // A wake is first stepped next step, when the walk reads the mask (the
    // same as the reference engine, where a node's first post-reception
    // on_step is next step's).
    if (!awake_.test_unchecked(idx(v))) {
      awake_.set(idx(v));
      ++awake_count_;
    }
    ++result_.deliveries;
    if (opts_.sink != nullptr) {
      opts_.sink->record({step, trace_event::type::receive, v, *delivered});
    }
    if (!was_informed && derived().proto_informed(v)) {
      result_.informed_at[idx(v)] = step;
      ++informed_count_;
      if (opts_.sink != nullptr) {
        // Carry the delivering message so informed events have provenance:
        // msg.from is the node whose transmission first informed v — the
        // parent edge of the first-delivery tree (sim/trace_analysis.h).
        opts_.sink->record({step, trace_event::type::informed, v, *delivered});
      }
    }
  }

  // Before phase 2: start every transmitter's record at kTransmitting, so
  // phase 2 never lists a transmitter as a touched listener.
  void mark_transmitters() {
    for (const node_id t : transmitters_) rx_[idx(t)].arrivals = kTransmitting;
  }

  // Resolve the listeners touched this step — only listeners, each with at
  // least one arrival: collisions, then deliveries (deferred through the
  // fault filter when a model is installed). Each record is reset as it is
  // resolved, and the transmitters' after, which restores the all-zero
  // state the next step's phase 2 relies on.
  void commit_receptions(std::int64_t step) {
    const std::span<const node_id> touched(touched_.data(), touched_count_);
    if (faults_ == nullptr) {
      for (const node_id v : touched) {
        const reception r = std::exchange(rx_[idx(v)], reception{});
        if (r.arrivals >= 2) {
          ++result_.collisions;
          if (opts_.sink != nullptr) {
            opts_.sink->record({step, trace_event::type::collision, v, {}});
          }
          continue;
        }
        RC_CHECK(r.arrivals == 1);
        RC_CHECK(idx(r.last_sender) < transmitters_.size());
        deliver(v, r.last_sender, step);
      }
    } else {
      commit_filtered(step, touched);
    }
    for (const node_id t : transmitters_) rx_[idx(t)] = reception{};
  }

  // Injection site 4: unique-arrival listeners go through the model's
  // delivery filter before anything is committed, but the trace must still
  // interleave collision/receive/drop in touched order — a zero-intensity
  // model's trace is byte-identical to the fault-free path's (the chaos
  // harness holds us to that).
  void commit_filtered(std::int64_t step, std::span<const node_id> touched) {
    for (const node_id v : touched) {
      const reception& r = rx_[idx(v)];
      if (r.arrivals >= 2) continue;
      RC_CHECK(r.arrivals == 1);
      RC_CHECK(idx(r.last_sender) < transmitters_.size());
      pending_.push_back({v, transmitters_[idx(r.last_sender)],
                          derived().proto_informed(v), false});
    }
    if (!pending_.empty()) {
      const fault::step_view view{step, &g_, &result_.informed_at, &crashed_};
      faults_->filter_deliveries(view, &pending_);
    }
    std::size_t next = 0;  // pending_ preserves touched order
    for (const node_id v : touched) {
      const reception r = std::exchange(rx_[idx(v)], reception{});
      if (r.arrivals >= 2) {
        ++result_.collisions;
        if (opts_.sink != nullptr) {
          opts_.sink->record({step, trace_event::type::collision, v, {}});
        }
        continue;
      }
      const fault::delivery_candidate& c = pending_[next++];
      RC_CHECK_MSG(c.listener == v,
                   "fault model must not reorder or resize the delivery list");
      if (c.suppressed) {
        ++result_.suppressed_deliveries;
        if (opts_.sink != nullptr) {
          opts_.sink->record({step, trace_event::type::drop, v,
                              tx_msgs_[idx(r.last_sender)]});
        }
        continue;
      }
      deliver(v, r.last_sender, step);
    }
    pending_.clear();
  }

  void push_step_metrics(std::int64_t collisions_before,
                         std::int64_t deliveries_before,
                         std::int64_t suppressed_before) {
    const auto tx_count = static_cast<std::int64_t>(transmitters_.size());
    const std::int64_t step_collisions =
        result_.collisions - collisions_before;
    const std::int64_t step_deliveries =
        result_.deliveries - deliveries_before;
    sr_frontier_->push(informed_count_);
    sr_awake_->push(awake_count_);
    sr_tx_->push(tx_count);
    sr_deliveries_->push(step_deliveries);
    sr_collisions_->push(step_collisions);
    // Listeners that heard nothing at all: everyone except transmitters
    // and the listeners resolved to a delivery or an observed collision.
    sr_idle_->push(static_cast<std::int64_t>(n_) - tx_count -
                   step_deliveries - step_collisions);
    h_tx_per_step_->observe(tx_count);
    if (sr_f_crashed_ != nullptr) {
      sr_f_crashed_->push(result_.crashed_nodes);
      sr_f_recoveries_->push(result_.recoveries);
      sr_f_suppressed_->push(result_.suppressed_deliveries - suppressed_before);
      sr_f_down_edges_->push(down_count_);
    }
  }

  // Completion bookkeeping shared by every engine; true ⇒ stop.
  bool step_epilogue(std::int64_t step) {
    result_.steps = step + 1;
    // Crashed nodes can never become informed; completion is over the
    // survivors (crashed_uninformed_ == 0 in fault-free runs).
    const bool everyone_informed =
        informed_count_ + crashed_uninformed_ == n_;
    if (everyone_informed && result_.informed_step == -1) {
      result_.informed_step = step + 1;
    }
    // The roster must settle before completion: while the model still
    // intends to bring crashed nodes back (fault/recovery.h), a returning
    // amnesiac may yet need the message, so "every surviving node is
    // informed" is not final.
    const bool settled =
        faults_ == nullptr || faults_->pending_recoveries() == 0;
    if (opts_.stop == stop_condition::all_informed) {
      if (everyone_informed && settled) {
        result_.completed = true;
        return true;
      }
    } else {
      if (everyone_informed && settled && all_halted()) {
        result_.completed = true;
        return true;
      }
    }
    // Message extinction: no live node holds the message and none of the
    // crashed holders will return — with no spontaneous transmissions the
    // broadcast can make no further progress, so burn no more steps. Only
    // a crashed source produces this state (an amnesia reboot of the
    // source keeps it informed), hence outcome source_lost.
    if (faults_ != nullptr && settled && informed_count_ == crashed_informed_) {
      return true;  // completed stays false; finalize_outcome classifies
    }
    return false;
  }

  // Partition-tolerant post-mortem (run_result::outcome): a BFS over the
  // SURVIVING graph — live nodes, up edges — as it stood when the run
  // stopped, splitting "genuinely stuck" from "unreachable" timeouts.
  // Fault-free completed runs skip the BFS: every node was reached, so
  // reachable = informed_reachable = n by construction.
  void finalize_outcome() {
    if (faults_ == nullptr && result_.completed) {
      result_.reachable_nodes = n_;
      result_.informed_reachable = n_;
      result_.outcome = run_outcome::completed;
      return;
    }
    const bool source_down = faults_ != nullptr && crashed_.test(0);
    if (!source_down) {
      bfs_seen_.assign(static_cast<std::size_t>(n_), 0);
      bfs_queue_.clear();
      bfs_seen_[0] = 1;
      bfs_queue_.push_back(0);
      for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
        const node_id u = bfs_queue_[head];
        const auto row = g_.out_row(u);
        const std::size_t base = faults_ != nullptr ? g_.out_edge_base(u) : 0;
        for (std::size_t i = 0; i < row.size(); ++i) {
          const node_id v = row[i];
          if (bfs_seen_[idx(v)] != 0) continue;
          if (faults_ != nullptr &&
              (crashed_.test(idx(v)) ||
               (down_count_ != 0 && down_mask_.test(base + i)))) {
            continue;
          }
          bfs_seen_[idx(v)] = 1;
          bfs_queue_.push_back(v);
        }
      }
      result_.reachable_nodes = static_cast<std::int64_t>(bfs_queue_.size());
      for (const node_id v : bfs_queue_) {
        if (result_.informed_at[idx(v)] != -1) ++result_.informed_reachable;
      }
    }
    if (result_.completed) {
      result_.outcome = run_outcome::completed;
    } else if (source_down) {
      result_.outcome = run_outcome::source_lost;
    } else if (result_.informed_reachable == result_.reachable_nodes) {
      result_.outcome = run_outcome::unreachable;
    } else {
      result_.outcome = run_outcome::stuck;
    }
  }

  // Phase 2 of the soa loop over transmitters_[lo, hi), with hoisted fault
  // branches: the loop body is selected once per call, and the per-slot
  // down-edge mask is consulted only while an edge is actually down.
  // Bumps records in `rx` and appends first touches to `out` from slot 0;
  // returns the touched count. The serial step passes the run's own
  // scratch and the whole list; a phase-2 shard passes its own. Mask reads
  // are unchecked: v comes from a CSR row, base + j from the same row.
  std::size_t phase_two_hoisted(std::size_t lo, std::size_t hi,
                                reception* rx, node_id* out) const {
    std::size_t nt = 0;
    if (faults_ == nullptr) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto ti = static_cast<node_id>(i);
        for (const node_id v : g_.out_row(transmitters_[i])) {
          nt = add_arrivals(rx, out, nt, v, ti, 1);
        }
      }
    } else if (down_count_ == 0) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto ti = static_cast<node_id>(i);
        for (const node_id v : g_.out_row(transmitters_[i])) {
          if (crashed_.test_unchecked(idx(v))) continue;  // injection site 3
          nt = add_arrivals(rx, out, nt, v, ti, 1);
        }
      }
    } else {
      for (std::size_t i = lo; i < hi; ++i) {
        const node_id t = transmitters_[i];
        const auto ti = static_cast<node_id>(i);
        const auto row = g_.out_row(t);
        const std::size_t base = g_.out_edge_base(t);
        for (std::size_t j = 0; j < row.size(); ++j) {
          const node_id v = row[j];
          if (crashed_.test_unchecked(idx(v)) ||
              down_mask_.test_unchecked(base + j)) {
            continue;  // no signal: neither a delivery nor a collision
          }
          nt = add_arrivals(rx, out, nt, v, ti, 1);
        }
      }
    }
    return nt;
  }

  // The reference engine — the model as written, kept as the oracle the
  // differential suite runs against: phase 1 calls on_step on every node,
  // and phase 2 keeps its per-neighbor fault branch.
  void run_reference() {
    for (std::int64_t step = 0; step < opts_.max_steps; ++step) {
      const std::int64_t collisions_before = result_.collisions;
      const std::int64_t deliveries_before = result_.deliveries;
      const std::int64_t suppressed_before = result_.suppressed_deliveries;

      if (faults_ != nullptr) apply_begin_step_faults(step);
      derived().proto_begin_step(step);

      // Phase 1: collect transmit decisions from ALL nodes.
      transmitters_.clear();
      tx_msgs_.clear();
      for (node_id v = 0; v < n_; ++v) {
        if (faults_ != nullptr && crashed_.test(idx(v))) {
          continue;  // injection site 2: crashed nodes never transmit
        }
        step_node</*check_spontaneous=*/true>(v, step);
      }
      result_.transmissions += static_cast<std::int64_t>(transmitters_.size());

      // Phase 2: resolve receptions — touch only transmitters' neighbors.
      mark_transmitters();
      reception* const rx = rx_.data();
      node_id* const out = touched_.data();
      std::size_t nt = 0;
      for (std::size_t ti = 0; ti < transmitters_.size(); ++ti) {
        const node_id t = transmitters_[ti];
        const auto row = g_.out_row(t);
        const std::size_t base = faults_ != nullptr ? g_.out_edge_base(t) : 0;
        for (std::size_t i = 0; i < row.size(); ++i) {
          const node_id v = row[i];
          if (faults_ != nullptr &&  // injection site 3: crashes + churn
              (crashed_.test_unchecked(idx(v)) ||
               (down_count_ != 0 && down_mask_.test_unchecked(base + i)))) {
            continue;  // no signal: neither a delivery nor a collision
          }
          nt = add_arrivals(rx, out, nt, v, static_cast<node_id>(ti), 1);
        }
      }
      touched_count_ = nt;

      commit_receptions(step);
      if (opts_.metrics != nullptr) {
        push_step_metrics(collisions_before, deliveries_before,
                          suppressed_before);
      }
      if (step_epilogue(step)) break;
    }
  }

  // radiocast-analyze: hot-path-end

  const graph& g_;
  const run_options& opts_;
  const node_id n_;
  fault::fault_model* const faults_;
  protocol_params params_;
  std::vector<node_id> labels_;
  run_result result_;
  std::int64_t informed_count_ = 1;
  std::int64_t awake_count_ = 1;
  std::int64_t crashed_uninformed_ = 0;
  std::int64_t crashed_informed_ = 0;

  // Per-node generator pool, split from the root seed in node order. The
  // dormant-node CONTRACT (sim/protocol.h) is what makes pooling safe: a
  // dormant node's stream is never advanced, so engines that skip dormant
  // nodes leave gens_ byte-identical to engines that step all n.
  std::vector<rng> gens_;
  // received_any[v] ⇔ v has received ≥ 1 message since its last (re)start;
  // awake ⇔ source or received_any (and alive).
  std::vector<std::uint8_t> received_any_;

  // Awake set (see finish_setup comment). Packed words so the sleeper
  // sweep can retire 64 nodes per OR and the polling walk can list the
  // set in order; awake_count_ is its popcount.
  util::bitset awake_;

  // Reception scratch: rx_ is all zero between steps; touched_[0,
  // touched_count_) lists this step's listeners in first-touch order, in
  // n + 1 slots sized at setup. tx_msgs_[i] is the message of
  // transmitters_[i], the index a reception's last_sender holds.
  std::vector<reception> rx_;
  std::vector<node_id> touched_;
  std::size_t touched_count_ = 0;
  std::vector<node_id> transmitters_;
  std::vector<message> tx_msgs_;

  // Fault state, allocated only for fault-injected runs. The simulator —
  // not the models — owns the crash mask and down-edge mask, so the hot
  // loop never pays a virtual call per node or per edge. Both are packed
  // words: the crash probe is one shift+AND, and the down-edge probe
  // indexes the flat CSR slot (out_edge_base(t) + i) instead of hashing
  // an (u,v) key. down_count_ tracks LOGICAL down edges (undirected edges
  // count once) for the hoisted fast path and the metrics series.
  util::bitset crashed_;
  util::bitset down_mask_;
  std::int64_t down_count_ = 0;
  fault::step_faults step_faults_buf_;
  std::vector<fault::delivery_candidate> pending_;

  // finalize_outcome scratch (the queue doubles as the visit list).
  std::vector<std::uint8_t> bfs_seen_;
  std::vector<node_id> bfs_queue_;

  // Per-step series, resolved once at setup (null ⇒ metrics disabled).
  obs::series* sr_frontier_ = nullptr;
  obs::series* sr_awake_ = nullptr;
  obs::series* sr_tx_ = nullptr;
  obs::series* sr_deliveries_ = nullptr;
  obs::series* sr_collisions_ = nullptr;
  obs::series* sr_idle_ = nullptr;
  obs::histogram* h_tx_per_step_ = nullptr;
  obs::series* sr_f_crashed_ = nullptr;
  obs::series* sr_f_recoveries_ = nullptr;
  obs::series* sr_f_suppressed_ = nullptr;
  obs::series* sr_f_down_edges_ = nullptr;
};

}  // namespace radiocast::detail
