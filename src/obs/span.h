// Span-based wall-clock profiler.
//
// `scoped_span` is an RAII timer over a monotonic clock. Spans nest: a span
// opened while another is active becomes its child, and repeated spans with
// the same name at the same position in the tree accumulate (count +
// total time), so a span around each trial of a 100-trial sweep costs one
// node, not one hundred.
//
// A null profiler pointer makes every operation a no-op, so call sites can
// be left in hot paths unconditionally:
//
//   obs::scoped_span span(profiler, "run_broadcast");   // profiler may be null
//
// The process-wide default profiler (`global_profiler()`) exists for the
// bench harness, which wants `run_broadcast` timed without threading a
// pointer through every helper; it is disabled (null) until
// `set_global_profiler` is called. Single-threaded by design, like the
// simulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"

namespace radiocast::obs {

/// One node of the span tree: aggregated timings for a span name at a
/// fixed position under its parent.
struct span_stats {
  std::string name;
  std::int64_t total_ns = 0;  ///< summed wall-clock across invocations
  std::int64_t count = 0;     ///< completed invocations
  std::vector<std::unique_ptr<span_stats>> children;

  double total_ms() const { return static_cast<double>(total_ns) / 1e6; }
};

/// Collects a hierarchy of named wall-clock spans.
class span_profiler {
 public:
  span_profiler();

  /// Opens a span as a child of the innermost open span. Balanced by
  /// end_span(); scoped_span is the intended interface.
  void begin_span(const std::string& name);
  void end_span();

  /// The root's children (top-level spans). Stable order of first opening.
  const std::vector<std::unique_ptr<span_stats>>& roots() const {
    return root_->children;
  }

  /// Depth-first lookup by name; nullptr when absent (first match wins).
  const span_stats* find(const std::string& name) const;

  /// Drops all recorded spans (open spans must be closed first).
  void clear();

  /// Merges another profiler's span tree into this one, under the
  /// innermost currently-open span (the root when none is open). Nodes
  /// match by name and position, as if `other`'s spans had been recorded
  /// here: totals and counts accumulate, unseen names append in `other`'s
  /// order. `other` must have no open spans. Parallel trial execution uses
  /// this to fold per-worker profilers back into the caller's tree.
  void merge(const span_profiler& other);

  /// Nested array form: [{"name", "total_ms", "count", "children": [...]}].
  json_value to_json() const;

  /// Indented text rendering for terminal output.
  std::string report() const;

 private:
  std::unique_ptr<span_stats> root_;
  struct open_frame {
    span_stats* node;
    // radiocast-analyze: allow(wall-clock) -- profiler timestamps feed span
    // durations only; spans are diagnostics and never reach results
    std::chrono::steady_clock::time_point start;
  };
  std::vector<open_frame> open_;
};

/// RAII span handle; tolerates a null profiler.
class scoped_span {
 public:
  scoped_span(span_profiler* profiler, const std::string& name)
      : profiler_(profiler) {
    if (profiler_ != nullptr) profiler_->begin_span(name);
  }
  ~scoped_span() {
    if (profiler_ != nullptr) profiler_->end_span();
  }

  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_profiler* profiler_;
};

/// Process-wide default profiler; null (disabled) until set. Not owned.
span_profiler* global_profiler();
void set_global_profiler(span_profiler* profiler);

}  // namespace radiocast::obs
