// Chaos harness: seed-driven invariant fuzzing over fault models,
// protocols, and graph families.
//
// The fault subsystem's correctness story rests on contracts — exactly-one
// -transmitter delivery, no spontaneous transmissions, faults only ever
// ERASE deliveries, soa/reference bit-identity, zero-intensity models
// are perfect no-ops. Each contract has targeted tests; the chaos harness
// is the complementary sweep that samples random COMPOSITIONS (random
// graph family × protocol × stacked fault models × step cap) and checks
// every invariant on every run, using the execution trace as the witness:
//
//   * the trace is replayed against a fresh clone() of the fault model
//     (begin_run + begin_step per step) — sound because every built-in
//     model draws randomness either only in begin_step or only in
//     filter_deliveries, never both — so the crash/recovery/churn schedule
//     in the trace must match what the model's configuration implies;
//   * delivery events are validated against the replayed down-edge and
//     crash state: exactly one live transmitting neighbor over an up edge,
//     no deliveries to or from crashed nodes, none over down edges;
//   * informed events must be monotone modulo amnesia evictions;
//   * run_result counters must equal the trace's event totals, and the
//     outcome classification must match a reachability recomputation;
//   * a serial soa run (step_threads = 1) and the reference run must agree
//     byte-for-byte (trial fields, informed_at, per-node energy, trace
//     NDJSON) — and when the protocol has a struct-of-arrays step form, an
//     intra-step-sharded soa run joins the same comparison, so two
//     fast-path configurations are held to the oracle;
//   * a zero-intensity composition must be bit-identical to the fault-free
//     run.
//
// `run_chaos` drives N seeded runs and emits a `radiocast.chaos.v1` JSON
// report (per-invariant check/violation counts, minimized failing
// scenarios); `check_scenario` is the single-run entry point, exposed so
// tests can aim the checker at a deliberately broken fault model and watch
// the right invariants fire. `radiocast_chaos` (tools/) is the CLI face;
// scripts/ci.sh runs a sanitizer-built smoke sweep on every push.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "sim/protocol.h"

namespace radiocast::fault {

/// The invariant catalogue. Every check_scenario run evaluates all of
/// them; docs/FAULTS.md documents each in prose.
enum class chaos_invariant {
  exactly_one_transmitter,      ///< receive ⇔ exactly 1 live tx neighbor
  no_spontaneous_transmission,  ///< transmitters are informed and live
  no_delivery_to_crashed,       ///< crashed nodes neither send nor hear
  no_delivery_over_down_edge,   ///< down edges carry no signal
  informed_monotone,            ///< informed-once, modulo amnesia eviction
  fault_schedule_replay,        ///< trace fault events == model replay
  fault_accounting,             ///< result counters == trace event totals
  completion_semantics,         ///< completed/outcome match final state
  engine_bit_identity,          ///< soa (serial, sharded) ≡ reference
  zero_intensity_identity,      ///< zero-intensity model ≡ fault-free run
};
inline constexpr int kChaosInvariantCount = 10;

/// Stable snake_case tag ("exactly_one_transmitter", …) used in reports.
const char* chaos_invariant_name(chaos_invariant inv);

/// One detected contract breach.
struct chaos_violation {
  chaos_invariant invariant = chaos_invariant::exactly_one_transmitter;
  std::string detail;  ///< deterministic, human-readable description
};

/// Outcome of checking one scenario. `checks` counts primitive
/// evaluations per invariant; `violation_counts` counts every breach,
/// while `violations` stores details for only the first few (bounded so a
/// badly broken model cannot allocate without limit).
struct scenario_check_result {
  std::array<std::int64_t, kChaosInvariantCount> checks{};
  std::array<std::int64_t, kChaosInvariantCount> violation_counts{};
  std::vector<chaos_violation> violations;

  bool ok() const;
};

/// Knobs for the SoA leg of check_scenario. Defaults force intra-step
/// sharding even on the tiny sampled graphs (2 threads, grain 1) so the
/// ordered phase merge is genuinely exercised; `debug_unordered_merge` is
/// test instrumentation that sabotages the merge order, letting tests
/// confirm engine_bit_identity actually catches an out-of-order reduction.
struct soa_check_options {
  int step_threads = 2;
  std::int64_t step_shard_grain = 1;
  bool debug_unordered_merge = false;
};

/// Runs `proto` on `g` with node 0 as source under `model` (nullable ⇒
/// fault-free), once on the reference engine and once on the serial soa
/// engine, with full traces, and checks every invariant. A third,
/// intra-step-sharded soa run joins the bit-identity comparison under
/// `soa`'s knobs. `seed` seeds every run; `zero_intensity` additionally
/// runs the fault-free twin of the serial soa run and demands
/// bit-identity. Requires identity
/// labeling (the trace oracle equates message labels with node ids).
scenario_check_result check_scenario(const graph& g, const protocol& proto,
                                     fault_model* model, std::uint64_t seed,
                                     std::int64_t max_steps,
                                     bool zero_intensity,
                                     const soa_check_options& soa = {});

struct chaos_options {
  std::int64_t runs = 200;      ///< sampled scenarios (one seed each)
  std::uint64_t base_seed = 1;  ///< scenario i runs with seed base_seed+i
  std::int64_t max_steps = 1500;  ///< largest sampled step cap
  int max_recorded_failures = 8;  ///< detail records kept (counts are exact)
  bool minimize = true;  ///< greedily shrink failing scenarios before recording
};

/// Per-invariant roll-up for the report.
struct invariant_stats {
  std::int64_t checks = 0;
  std::int64_t violations = 0;
};

/// One recorded failure, post-minimization: the smallest model subset and
/// step cap that still reproduces a violation under the same seed.
struct chaos_failure {
  std::uint64_t seed = 0;
  std::string scenario;   ///< graph/protocol/faults/cap description
  std::string invariant;  ///< first violated invariant's tag
  std::string detail;
  bool minimized = false;  ///< true when shrinking removed anything
};

struct chaos_report {
  chaos_options config;
  std::int64_t runs = 0;
  std::int64_t failed_runs = 0;
  std::array<invariant_stats, kChaosInvariantCount> invariants{};
  std::vector<chaos_failure> failures;

  bool ok() const { return failed_runs == 0; }
  /// Schema "radiocast.chaos.v1" (validated by `radiocast_inspect
  /// validate` through validate_chaos_report below).
  obs::json_value to_json() const;
};

/// Runs the sampled sweep. Deterministic: the same options produce the
/// same scenarios, the same verdicts, and the same report.
chaos_report run_chaos(const chaos_options& opts);

/// Structural validation of a radiocast.chaos.v1 document (field presence,
/// types, known invariant names, counter consistency: ok ⇔ failed_runs ==
/// 0 ⇔ zero violations; violations ≤ checks; recorded failures ≤
/// failed_runs). Appends one message per defect to `errors` when given.
bool validate_chaos_report(const obs::json_value& doc,
                           std::vector<std::string>* errors = nullptr);

}  // namespace radiocast::fault
