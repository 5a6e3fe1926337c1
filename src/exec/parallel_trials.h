// Trial-level parallel execution with bit-identical determinism.
//
// run_trials (src/sim/simulator.h) executes its seeded trials strictly
// serially; every bench and statistical experiment is bottlenecked on one
// core. But the trials are already independent by construction: trial t
// runs run_broadcast with seed base_seed + t, per-node generators split
// from that seed, and fault models reset all state from it in begin_run.
// So the batch parallelizes by SEED SHARDING:
//
//   * the seed range [base_seed, base_seed + trials) is cut into
//     contiguous shards, a few per worker for load balance;
//   * each shard runs the unmodified serial run_trials on its sub-range,
//     with a PRIVATE metrics_registry, a PRIVATE span_profiler, and a
//     PRIVATE fault_model clone — workers share only the const graph and
//     protocol factory;
//   * shards are folded back IN SEED ORDER, and the fold STREAMS: the
//     calling thread retires each next-in-order shard as it finishes —
//     firing trial_options::hooks.on_done, merging its registry
//     (metrics_registry::merge) and span tree (span_profiler::merge) into
//     the caller's, then releasing the shard's memory — while later shards
//     are still running. With hooks.discard_records, peak memory is
//     bounded by in-flight shards, not the whole batch.
//
// trial_options::shard_size pins the shard boundaries (a function of the
// batch alone, not of the host's core count); 0 keeps the auto split, a
// few shards per worker.
//
// Determinism contract (tested by tests/parallel_test.cpp, run under TSan
// by scripts/ci.sh): for every thread count, the resulting trial_set and
// the merged metrics registry are bit-identical to what serial run_trials
// produces — the only nondeterministic fields are the wall-clock ones
// (trial_record::wall_ms, span timings). See docs/PARALLELISM.md.
#pragma once

#include "sim/simulator.h"

namespace radiocast {

/// As run_trials, but sharded over exec::resolve_threads(opts.threads)
/// workers. A resolved count ≤ 1 (the default when RADIOCAST_THREADS is
/// unset) calls the serial run_trials directly — byte-for-byte the
/// existing path — UNLESS opts.hooks or opts.shard_size demand shard
/// structure, in which case the sharded path runs even on one worker (and
/// still produces bit-identical records). With opts.faults set, the model
/// must support clone() (all built-in models do); a non-cloneable model is
/// a checked error.
trial_set parallel_run_trials(const graph& g, const protocol& proto,
                              const trial_options& opts);

}  // namespace radiocast
