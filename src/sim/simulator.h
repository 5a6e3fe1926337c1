// Synchronous radio network simulator.
//
// Implements the paper's communication model exactly (§1):
//   * time proceeds in synchronous steps;
//   * in every step each node acts either as a transmitter or as a receiver;
//   * a receiver gets a message iff EXACTLY ONE of its in-neighbors
//     transmits in that step; with ≥ 2 transmitting neighbors a collision
//     occurs and is indistinguishable from silence (no collision detection);
//   * only nodes that already hold the source message may transmit — no
//     spontaneous transmissions (enforced; a violation throws).
//
// Supports undirected and directed graphs (Section 2 of the paper analyzes
// the randomized algorithm on directed graphs).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "sim/protocol.h"
#include "sim/trace.h"

namespace radiocast::obs {
class metrics_registry;
class span_profiler;
}  // namespace radiocast::obs

namespace radiocast::fault {
class fault_model;
}  // namespace radiocast::fault

namespace radiocast {

/// When the run loop stops.
enum class stop_condition {
  all_informed,  ///< stop once every node holds the source message
  all_halted,    ///< stop once every node reports halted() (token protocols)
};

/// Which step loop runs the broadcast (see docs/PERFORMANCE.md). Every
/// protocol runs both loops on the templated SoA run (sim/soa_engine.h)
/// through its traits (protocol::soa_runner), with the hooks inlined;
/// virtual_view runs them on per-node protocol_node objects instead. Only
/// these two loops exist because of the dormant-node
/// contract in sim/protocol.h: the paper's model has no spontaneous
/// transmissions, so skipping nodes that never received is unobservable.
enum class step_engine {
  /// The model as written, retained as the differential-testing oracle:
  /// phase 1 calls on_step on all n nodes every step.
  reference,
  /// The fast loop (sim/soa_engine.h): phase 1 iterates only the awake set
  /// (source + every node that has received at least one message; crashed
  /// nodes leave it), skips awake nodes whose traits declare a later
  /// next_poll (the quiescence calendar), and phase 1 / phase 2 of a
  /// single step can shard across a thread pool (run_options::step_threads)
  /// with an ordered-merge reduction. Trial records, metrics dumps, and
  /// traces are bit-identical to `reference` — the differential suite
  /// holds it to that. The default.
  soa,
};

struct run_options {
  std::int64_t max_steps = 1'000'000;  ///< hard cap; hitting it ⇒ incomplete
  stop_condition stop = stop_condition::all_informed;
  std::uint64_t seed = 1;      ///< root seed; split per node
  trace* sink = nullptr;       ///< optional event recording
  /// Optional metrics collection (see src/obs/metrics.h). When set, the
  /// simulator records per-step series — informed-frontier size, awake-set
  /// size (`sim.awake`: source + nodes that have received at least one
  /// message, minus crashed), transmissions, deliveries, collisions, idle
  /// listeners — under
  /// `sim.*`, and protocols receive the registry through node_context to
  /// tag per-phase counters. Null ⇒ the step loop's only overhead is one
  /// branch per instrumentation site.
  obs::metrics_registry* metrics = nullptr;
  /// Optional wall-clock span collection for this run. When null, the
  /// process-wide obs::global_profiler() (also null by default) is used.
  obs::span_profiler* profiler = nullptr;
  /// Optional fault injection (see src/fault/fault_model.h). When set, the
  /// simulator consults the model at the top of every step (crash-stops,
  /// edge churn) and before committing deliveries (loss, jamming), records
  /// `sim.fault.*` metric series and crash/drop/edge trace events, and
  /// fills the fault-accounting fields of run_result. Crashed nodes are
  /// exempt from the stop condition: "completed" then means every
  /// SURVIVING node is informed (resp. halted) — AND the roster has
  /// settled: while the model reports pending_recoveries() > 0, nodes are
  /// still destined to rejoin (possibly with amnesia, needing the message
  /// again), so completion is withheld. Null ⇒ the fault-free step
  /// loop pays exactly one branch per injection site, and results are
  /// bit-identical to a run where the model suppresses nothing.
  fault::fault_model* faults = nullptr;
  /// Optional sparse labeling: labels[v] is the label of graph node v
  /// (distinct, within {0,…,r}, labels[0] == 0 — the source's label).
  /// Empty ⇒ identity (label = node id). The paper's model only fixes
  /// r = O(n); protocols whose schedules scan the label space (round-robin
  /// slots, presence announcements, binary selection) genuinely slow down
  /// under sparse labels — see experiment E14.
  std::vector<node_id> labels;
  /// Step-loop implementation. `soa` (default) skips dormant and sleeping
  /// nodes; `reference` steps every node, serving as the differential
  /// oracle.
  step_engine engine = step_engine::soa;
  /// Debug sweep (soa engine): every step, call on_step on every dormant
  /// node anyway and RC_CHECK that it returns std::nullopt and leaves its
  /// rng untouched — the dormant-node contract of sim/protocol.h, verified
  /// rather than assumed. Under the quiescence calendar it also runs
  /// on_step on a copy of every awake node that is not due (the SLEEP
  /// CONTRACT). Restores O(n) per-step cost; for tests, not production
  /// runs.
  bool verify_sleepers = false;
  /// Intra-step worker threads (soa engine only; the reference loop
  /// ignores these fields): 1 = serial (the default), 0 = the
  /// RADIOCAST_THREADS environment default, N ≥ 2 = shard each step's
  /// phase 1 (transmit decisions over the awake list) and phase 2
  /// (reception scan over transmitters' neighborhoods) into N contiguous
  /// shards merged in shard order — bit-identical to serial at every
  /// thread count (docs/PERFORMANCE.md gives the ordered-merge argument).
  /// Metrics-enabled runs pin phase 1 serial (protocols write gauges from
  /// on_step whose last-write-wins semantics only serial order
  /// reproduces); phase 2 still shards. Sharded on_step calls run
  /// concurrently across nodes, so a traits' on_step writes only its own
  /// node's state.
  int step_threads = 1;
  /// Minimum work per intra-step shard before sharding engages: phase 1
  /// counts awake nodes, phase 2 counts transmitter out-edges. 0 = a
  /// default tuned so tiny steps never pay fork/join overhead; tests set 1
  /// to force sharding on small graphs. Gating never affects results —
  /// sharded and serial steps are bit-identical — only wall-clock.
  std::int64_t step_shard_grain = 0;
  /// TEST-ONLY sabotage knob: merge phase-2 shards in REVERSE order,
  /// deliberately breaking the ordered-merge reduction the soa engine's
  /// bit-identity rests on. Exists so the chaos harness can prove the
  /// engine-bit-identity invariant actually catches a broken merge
  /// (tests/chaos_test.cpp); never set it in real runs.
  bool debug_unordered_merge = false;
};

/// How a run ended, beyond the completed flag. Partition-tolerant
/// semantics: a run that times out because the uninformed remainder was
/// CUT OFF (no live path from the source at the final step) is not the
/// same failure as one where progress was possible but not made. The
/// reachability BFS runs over the surviving graph — live (non-crashed)
/// nodes and up edges — at the moment the run stopped.
enum class run_outcome {
  completed,    ///< stop condition reached within the cap
  stuck,        ///< timed out with reachable-but-uninformed nodes left
  unreachable,  ///< timed out; every reachable survivor IS informed —
                ///< the rest are cut off behind crashes/down edges
  source_lost,  ///< the source itself is crashed at the end of the run
};

/// Short lowercase tag ("completed", "stuck", "unreachable", "source_lost").
const char* run_outcome_name(run_outcome o);

struct run_result {
  bool completed = false;         ///< stop condition reached within the cap
  std::int64_t steps = 0;         ///< steps executed
  std::int64_t informed_step = -1;  ///< first step after which all informed
  std::int64_t transmissions = 0;   ///< total transmit actions
  std::int64_t collisions = 0;      ///< listener-steps with ≥2 transmitters
  std::int64_t deliveries = 0;      ///< successful receptions
  std::vector<std::int64_t> informed_at;  ///< per node; −1 = never
  /// Per-node transmission counts — the energy metric of the radio
  /// literature (transmitting dominates a node's power budget).
  std::vector<std::int64_t> transmissions_per_node;
  // Fault accounting (all zero when run_options::faults is null).
  std::int64_t crashed_nodes = 0;  ///< crash EVENTS applied (a node that
                                   ///< recovers and re-crashes counts twice)
  std::int64_t recoveries = 0;     ///< crashed nodes that rejoined
  std::int64_t suppressed_deliveries = 0;  ///< receptions silenced (loss/jam)
  std::int64_t churned_edges = 0;  ///< edge up/down transitions applied
  // Partition-tolerant accounting (fault-free completed runs report
  // reachable_nodes = informed_reachable = n without running the BFS).
  std::int64_t reachable_nodes = 0;  ///< survivors reachable from the source
                                     ///< over the final surviving graph
                                     ///< (0 when the source is down)
  std::int64_t informed_reachable = 0;  ///< of those, how many are informed
  run_outcome outcome = run_outcome::completed;
};

/// Runs `proto` on `g` with node 0 as source until the stop condition or the
/// step cap. Node labels are the graph's node ids; r = n − 1.
run_result run_broadcast(const graph& g, const protocol& proto,
                         const run_options& opts = {});

/// As run_broadcast, but with an explicit label bound r ≥ n − 1 (the paper
/// only assumes labels come from {0,…,r} with r linear in n).
run_result run_broadcast_with_r(const graph& g, const protocol& proto,
                                node_id r, const run_options& opts = {});

// ---------------------------------------------------------------------------
// Trial batches — the measurement substrate of every bench and experiment.
// ---------------------------------------------------------------------------

/// One contiguous seed-range slice of a trial batch, as reported to shard
/// lifecycle hooks by parallel_run_trials (src/exec/parallel_trials.h).
struct shard_info {
  int index = 0;            ///< shard position within the batch (seed order)
  int first = 0;            ///< index of the shard's first trial
  int count = 0;            ///< trials in this shard
  std::uint64_t base_seed = 0;  ///< seed of the shard's first trial
};

/// Lifecycle hooks for sharded trial execution. Honored ONLY by
/// parallel_run_trials (run_trials is always plain-serial and ignores
/// them, exactly like trial_options::threads). They let a caller stream
/// trial records out, or time shards, instead of folding every shard back
/// through process memory:
///
///   * on_start fires from WORKER threads as shards begin, in no
///     particular order — the callback must be thread-safe;
///   * on_done fires on the CALLING thread, strictly in seed order, as
///     each next-in-order shard finishes — a shard's records stream out
///     (and its memory is released when discard_records is set) while
///     later shards are still running;
///   * discard_records = true drops each shard's trial records after its
///     on_done returns instead of folding them into the returned
///     trial_set, which then comes back empty. Metrics and span merges
///     are unaffected.
struct trial_set;  // defined below

struct shard_hooks {
  std::function<void(const shard_info&)> on_start;
  std::function<void(const shard_info&, const trial_set&)> on_done;
  bool discard_records = false;

  bool any() const {
    return on_start != nullptr || on_done != nullptr || discard_records;
  }
};

/// Options for a seeded trial batch.
struct trial_options {
  int trials = 1;
  std::uint64_t base_seed = 1;  ///< trial t runs with seed base_seed + t
  std::int64_t max_steps = 1'000'000;
  stop_condition stop = stop_condition::all_informed;
  /// Metrics registry shared across all trials (phase counters accumulate;
  /// per-step series are only meaningful for single-trial batches).
  obs::metrics_registry* metrics = nullptr;
  obs::span_profiler* profiler = nullptr;
  /// Optional fault injection, shared by every trial: the model is re-seeded
  /// per trial through fault_model::begin_run (trial t runs with seed
  /// base_seed + t), so each trial draws an independent fault schedule.
  fault::fault_model* faults = nullptr;
  /// Worker threads for parallel_run_trials (src/exec/parallel_trials.h):
  /// 0 = the RADIOCAST_THREADS environment default (1 when unset), 1 =
  /// serial, N ≥ 2 = shard the seed range over N workers. run_trials
  /// ignores this field — it is ALWAYS serial; parallel_run_trials with a
  /// resolved count ≤ 1 takes that serial path untouched, and with more
  /// threads produces bit-identical trial records and merged metrics
  /// (wall_ms aside; see docs/PARALLELISM.md).
  int threads = 0;
  /// Explicit shard size for parallel_run_trials: 0 = auto (a few shards
  /// per worker, balanced), N ≥ 1 = contiguous shards of exactly N trials
  /// in seed order (the last one smaller when N does not divide trials).
  /// Pinning it makes shard boundaries — and so the on_done calls — a
  /// function of the batch alone, not of the host's core count.
  /// run_trials ignores this field, like `threads`.
  int shard_size = 0;
  /// Shard lifecycle hooks (see shard_hooks above). parallel_run_trials
  /// only; run_trials ignores them.
  shard_hooks hooks;
  /// Step-loop implementation for every trial (see run_options::engine).
  step_engine engine = step_engine::soa;
  /// Per-trial dormant-node contract sweep (see run_options::verify_sleepers).
  bool verify_sleepers = false;
  /// Intra-step worker threads per trial (see run_options::step_threads;
  /// soa engine only; 1 = serial, the default). Independent of `threads`,
  /// which shards ACROSS trials: a campaign typically picks one or the
  /// other, not both.
  int step_threads = 1;
  /// Minimum work per intra-step shard (see run_options::step_shard_grain).
  std::int64_t step_shard_grain = 0;
};

/// Outcome of one trial, the unit record of bench telemetry.
struct trial_record {
  std::uint64_t seed = 0;
  bool completed = false;   ///< stop condition reached within the cap
  std::int64_t steps = 0;
  std::int64_t informed_step = -1;  ///< −1 when the trial timed out
  std::int64_t transmissions = 0;
  std::int64_t collisions = 0;
  std::int64_t deliveries = 0;
  // Fault accounting (zero for fault-free batches); turns trial batches
  // into resilience curves — timeout_rate vs fault intensity.
  std::int64_t crashed_nodes = 0;
  std::int64_t recoveries = 0;
  std::int64_t suppressed_deliveries = 0;
  std::int64_t churned_edges = 0;
  // Partition-tolerant accounting (see run_result).
  std::int64_t reachable_nodes = 0;
  std::int64_t informed_reachable = 0;
  run_outcome outcome = run_outcome::completed;
  double wall_ms = 0.0;  ///< wall-clock of this trial's run_broadcast
};

/// A batch of seeded trials. Unlike completion_times, incomplete trials are
/// DATA, not errors — benches near the step cap report timeout rates
/// instead of aborting the sweep.
struct trial_set {
  std::vector<trial_record> trials;

  std::size_t completed_count() const;
  bool all_completed() const { return completed_count() == trials.size(); }
  /// Fraction of trials that hit the step cap, in [0, 1].
  double timeout_rate() const;
  /// informed_step of each COMPLETED trial, in trial order.
  std::vector<double> completion_steps() const;
  double total_wall_ms() const;
};

/// Runs `opts.trials` seeded broadcasts and records one trial_record each.
/// Never throws on timeout — inspect trial_set::timeout_rate().
trial_set run_trials(const graph& g, const protocol& proto,
                     const trial_options& opts);

/// Convenience for experiments: completion time over `trials` seeded runs
/// (each seed = base_seed + trial index). Throws if any trial fails to
/// complete within the cap; sweeps that must survive timeouts use
/// run_trials instead.
std::vector<double> completion_times(const graph& g, const protocol& proto,
                                     int trials, std::uint64_t base_seed,
                                     std::int64_t max_steps = 1'000'000);

}  // namespace radiocast
