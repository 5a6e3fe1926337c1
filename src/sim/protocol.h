// Protocol interface: how broadcasting algorithms plug into the radio model.
//
// The paper models an algorithm as an action function π(v, H_{k−1}(v)) — the
// decision of node v at step k depends only on v's label and the messages it
// has received so far. We mirror that: a node's `on_step` returns its
// transmit decision for the current step and its `on_receive` extends its
// history.
//
// Every protocol writes that action function ONCE, as SoA traits (a POD
// per-node state plus const hooks; sim/soa_engine.h). soa_runner hands out
// one static pair of entries built from the same configured traits: `run`
// runs the templated step loops, and `make_bank` builds a node_bank — the
// traits and the states of all n nodes, with the hooks by node index — for
// code that drives nodes itself (the lower-bound adversary, virtual_view).
//
// Knowledge model (paper §1.3): a node knows a priori only its own label and
// the bound r on labels. Procedures explicitly parameterized by D (such as
// Randomized-Broadcasting(D)) receive it through `protocol_params::d_hint`;
// the top-level algorithms leave it at −1.
//
// CONTRACT (dormant nodes are pure no-ops): a node other than the source
// that has never received a message MUST, from on_step, (a) return
// std::nullopt — no spontaneous transmissions, (b) draw NOTHING from
// ctx.gen, and (c) mutate no internal state. Equivalently: an uninformed
// node's behavior is independent of time, and calling — or not calling —
// on_step on it is unobservable. The soa engine relies on this to skip
// dormant nodes entirely (docs/PERFORMANCE.md): phase 1 iterates only the
// awake set (source + every node that has received at least one message),
// which is bit-identical to stepping all n nodes exactly because dormant
// on_step is a no-op. This is the paper's model (§1) — no spontaneous
// transmissions — and it is why two engines suffice: `reference` polls all
// n nodes as the model is written, `soa` skips the dormant ones. The
// contract is enforced three ways: the reference engine's
// spontaneous-transmission check, the run_options::verify_sleepers sweep
// (calls dormant on_step and RC_CHECKs nullopt + untouched rng state), and
// the reference-vs-soa differential suite (any dormant state mutation
// diverges there). The
// lower-bound adversary also relies on it to keep dormant candidate nodes
// fresh.
//
// POOLED PER-NODE RNG (the CONTRACT's second beneficiary): every engine
// now draws per-node randomness from one contiguous pool, `gens_` in
// sim/engine_core.h, split from the root seed in node order 0…n−1 — the
// generator is not part of the protocol state. This is only sound
// BECAUSE of the dormant-node contract: a dormant node never advances its
// pool slot, so an engine that skips dormant nodes (soa) leaves
// the pool byte-identical to one that steps all n (reference), and the
// sharded soa engine can hand each intra-step shard its contiguous slice
// of the pool — per-shard RNG streams with no cross-shard draws — while
// still producing the serial streams exactly. A protocol that drew from
// ctx.gen while dormant would break pool identity across engines AND make
// shard boundaries observable; verify_sleepers exists to catch exactly
// that before the differential suite has to.
//
// SLEEP CONTRACT (the same idea for AWAKE nodes, opt-in): an SoA traits
// may declare
//   std::int64_t next_poll(const state&, std::int64_t step) const;
// returning the earliest step AFTER `step` at which on_step could
// transmit, draw from ctx.gen, write metrics, or change state, assuming no
// reception arrives in between. kWakeOnReceive means "only a reception
// wakes me". Answering step + 1 is always safe — it is what polling does.
// The soa engine keeps such nodes in a calendar and skips their on_step
// until the answered step (sim/soa_engine.h); it re-asks after every
// on_step, on_receive, and recovery. Between two polls, calling on_step
// must therefore be a no-op exactly like a dormant node's: verify_sleepers
// checks that on a copy of every awake, not-due node's state, and the
// differential suite checks that skipping it is unobservable. The token
// protocols, dfs_known and Decay opt in; Decay's hint skips the steps of
// a phase after the node's drawn cutoff, where it neither draws nor
// transmits. The KP protocols still poll.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "sim/message.h"
#include "util/rng.h"

namespace radiocast::obs {
class metrics_registry;
}  // namespace radiocast::obs

namespace radiocast {

class graph;
class node_bank;     // sim/soa_engine.h
struct run_options;  // sim/simulator.h
struct run_result;   // sim/simulator.h
class protocol;

/// A protocol's entries, built from its one configured traits
/// (soa_entry_for in sim/soa_engine.h). run_broadcast_with_r resolves them
/// ONCE per run through protocol::soa_runner.
struct soa_entry {
  /// Runs one full broadcast of `proto` on `g` with the given label bound
  /// and options, using the templated SoA run instantiated for the
  /// protocol's POD state on whichever step loop opts.engine names. The
  /// step loops it jumps into have no virtual dispatch at all — on_step is
  /// inlined into the loop body.
  run_result (*run)(const graph& g, const protocol& proto, node_id r,
                    const run_options& opts);
  /// Builds the bank those arguments would run on: the configured traits
  /// and every node's state after init, under opts.labels (node ids when
  /// empty). Of the graph only its node count is read, and dfs_known's
  /// neighbor rows; the bank keeps no reference to it.
  std::unique_ptr<node_bank> (*make_bank)(const graph& g,
                                          const protocol& proto, node_id r,
                                          const run_options& opts);
};

/// next_poll's "no scheduled wake" answer: only a reception (or a
/// recovery) makes the node worth stepping again (see SLEEP CONTRACT).
inline constexpr std::int64_t kWakeOnReceive =
    std::numeric_limits<std::int64_t>::max();

/// Static parameters handed to every node's init.
struct protocol_params {
  node_id r = 0;    ///< labels are drawn from {0, …, r}; r = O(n)
  int d_hint = -1;  ///< radius for D-parameterized procedures; −1 = unknown
};

/// Per-step information available to a node.
struct node_context {
  std::int64_t step = 0;  ///< global synchronous step number (0-based)
  rng* gen = nullptr;     ///< per-node generator (unused by deterministic
                          ///< protocols; never null inside the simulator)
  /// Observability hook: null unless the run enables metrics
  /// (run_options::metrics). Protocols use it to tag phase markers —
  /// decay stage draws, kp block/stage indices, DFS token hops, echo
  /// rounds — and MUST guard every use with a null check so that
  /// metrics-disabled runs stay free of instrumentation cost. Reach each
  /// instrument through an obs::metric_key declared once at namespace
  /// scope (`metrics->counter_at(kKey)`), never through the string-keyed
  /// get_* lookups, which build a key and walk a map on every call. The
  /// registry carries no protocol semantics; it never feeds decisions.
  obs::metrics_registry* metrics = nullptr;
};

/// One broadcasting algorithm.
class protocol {
 public:
  virtual ~protocol() = default;

  /// Human-readable algorithm name for tables and traces.
  virtual std::string name() const = 0;

  /// True for deterministic algorithms (required by the lower-bound
  /// adversary, which replays node decisions).
  virtual bool deterministic() const = 0;

  /// The protocol's entries: a pointer to a static pair that runs both
  /// engines — reference and soa — on the protocol's traits, and builds
  /// their bank. Never null.
  virtual const soa_entry* soa_runner() const = 0;
};

/// A view of `inner` with its traits form hidden: its run drives an
/// adapter traits (sim/simulator.cpp) whose state is a node index into
/// inner's bank for the run, so every hook is a virtual call and there is
/// no quiescence calendar. Under step_engine::soa that is the plain
/// awake-set walk, which makes the view the per-node reference path of the
/// differential suite and the throughput bench's baseline for the SoA
/// layout and the calendar. Workers only read the bank's traits, so the
/// view's steps shard like any other run. `inner` must outlive the view.
class virtual_view final : public protocol {
 public:
  explicit virtual_view(const protocol& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool deterministic() const override { return inner_.deterministic(); }
  const soa_entry* soa_runner() const override;

 private:
  static run_result run(const graph& g, const protocol& view, node_id r,
                        const run_options& opts);
  static std::unique_ptr<node_bank> make_bank(const graph& g,
                                              const protocol& view,
                                              node_id r,
                                              const run_options& opts);

  const protocol& inner_;
};

}  // namespace radiocast
