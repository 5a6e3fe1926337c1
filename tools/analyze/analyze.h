// radiocast_analyze — the project's static-analysis engine.
//
// The simulator's load-bearing guarantee is bit-identical results across
// serial and parallel trial execution and across fault replays. That
// guarantee is easy to break silently: one wall-clock seed, one direct
// std::mt19937, or one result-affecting iteration over an unordered
// container is enough. This engine enforces nine project checks
// (docs/STATIC_ANALYSIS.md). Five are token rules, scoped by path prefix:
//
//   R1 no-raw-random   all randomness flows through util/rng.h
//                      (everywhere: src/, tests/, tools/, bench/, examples/)
//   R2 wall-clock      no wall-clock APIs outside bench/ and src/exec/
//                      (src/campaign/ checkpoint timestamps: annotated
//                      allow only)
//   R3 unordered-iter  no std::unordered_{map,set} use in src/, tests/, or
//                      tools/ without an annotated justification
//   R4 check-msg       RC_CHECK in src/adversary/ and src/exec/ must carry
//                      a message (RC_CHECK_MSG)
//   R5 iostream        no <iostream> in src/ library code
//
// Four reason about structure and flow, which token matching cannot
// express:
//
//   P1 layering   the #include graph respects the declared layer manifest
//                 (util → obs → graph → … → campaign → harness): no upward
//                 edges, no file-level include cycles. The full DAG is
//                 emitted in the report.
//   P2 taint      wall-clock reads may only flow into wall-clock-family
//                 outputs. Values assigned from a clock API are tracked
//                 through scope-local assignments; branching on them, or
//                 sinking them into a non-wall-family telemetry key or
//                 struct member, is a finding. Every `rng` construction
//                 must derive from a seeded stream (util/rng.h): a numeric
//                 literal, a *seed*/*salt* expression, mix_seed/splitmix64,
//                 split(), or another generator.
//   P3 contract   every protocol exposing soa_runner() ships SoA traits
//                 whose `struct state` avoids owning/non-trivially-copyable
//                 members, implements the full hook set (init, on_step,
//                 on_receive, informed, halted, on_restart — restart
//                 tolerance is mandatory), and declares any begin_step hook
//                 with the exact signature the engine detects
//                 (`begin_step(std::int64_t)`). A src/core file that
//                 defines SoA traits may not also define a protocol_node
//                 subclass: the traits are the only implementation.
//   P4 hot-path   no heap allocation, std::string construction, throw,
//                 iostream, or string-keyed metric lookup (get_counter,
//                 get_gauge, get_histogram, get_series) inside the
//                 annotated step-loop regions (`// radiocast-analyze:
//                 hot-path-begin` … `hot-path-end`) of sim/engine_core.h,
//                 sim/soa_engine.h, simulator.cpp and the per-step traits
//                 hooks of the instrumented protocols. Text inside
//                 RC_CHECK*/RC_REQUIRE* macro arguments is exempt — the
//                 assertion-failure path is cold by definition.
//
// Findings are suppressed per line with
//   // radiocast-analyze: allow(<check>) -- <justification>
// either trailing the offending line or on the line directly above it.
// The justification is mandatory; malformed, unknown, or stale
// annotations are findings themselves, under the pseudo-id
// "analyze-annotation".
//
// The engine is dependency-free and text-based — a tripwire, not a
// compiler (the lexer in tools/analyze/lexer.h strips comments and
// literals) — so scripts/ci.sh stage 0 can run it before anything else
// compiles. Tests drive it with synthetic paths and inline fixtures
// (tests/analyze_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"

namespace radiocast::analyze {

/// Schema tag of the JSON report; radiocast_inspect validates it.
inline constexpr char kSchema[] = "radiocast.analysis.v1";

/// One check, for the report's pass table and the CLI's --passes listing.
struct pass_info {
  const char* id;       ///< annotation name, e.g. "hot-path"
  const char* summary;  ///< one-line description
};

/// The nine checks, R1–R5 then P1–P4.
const std::vector<pass_info>& passes();

/// True iff `id` names a known check (valid in allow() annotations).
bool is_known_pass(const std::string& id);

/// One diagnostic. `suppressed` findings carry the annotation's
/// justification and do not affect the exit status.
struct finding {
  std::string pass;
  std::string path;
  int line = 0;
  std::string message;
  std::string snippet;        ///< offending source line, whitespace-trimmed
  bool suppressed = false;
  std::string justification;  ///< annotation text after "--"
};

/// The declared architecture: named layers in low→high order plus
/// longest-prefix path→layer assignments. Parsed from
/// tools/analyze/layers.manifest (format: `layer <name>` lines declare the
/// order, `path <prefix> <name>` lines assign files; `#` comments).
struct layer_manifest {
  std::vector<std::string> order;  ///< layer names, lowest first
  struct assignment {
    std::string prefix;  ///< repo-relative path prefix
    std::string layer;
  };
  std::vector<assignment> assignments;

  /// Rank of `layer` in the order (0 = lowest); −1 when unknown.
  int rank(const std::string& layer) const;
  /// Layer of `path` by longest matching prefix; "" when unassigned.
  std::string layer_for(const std::string& path) const;
};

/// Parses the manifest text. Malformed lines and assignments naming
/// undeclared layers are reported into `errors` (may be null).
layer_manifest parse_manifest(const std::string& text,
                              std::vector<std::string>* errors);

/// One input file: repo-relative path with forward slashes, full text.
struct source_file {
  std::string path;
  std::string text;
};

/// One resolved #include edge of the include graph.
struct include_edge {
  std::string from;
  std::string to;
  int line = 0;  ///< line of the #include in `from`
};

/// Aggregated result over a scan.
struct report {
  std::vector<finding> findings;
  int files_scanned = 0;
  /// The include DAG over the scanned set (externals excluded), emitted in
  /// the JSON report: nodes are scanned files annotated with their layer.
  std::vector<std::string> nodes;
  std::vector<include_edge> edges;
  layer_manifest manifest;

  int unsuppressed_count() const;
  int suppressed_count() const;
};

/// Runs every check over `files` (all files at once — the layering pass is
/// cross-file). Paths must be repo-relative with forward slashes; path
/// prefixes decide which checks apply.
report analyze_files(const std::vector<source_file>& files,
                     const layer_manifest& manifest);

/// Serializes `rep` as a radiocast.analysis.v1 document.
obs::json_value report_to_json(const report& rep);

}  // namespace radiocast::analyze
