// Measurement helpers for the repo benchmark: clocks, spans recorded from
// outside the library, a timing fault-model wrapper, statistics with the
// percentile sample rule, output digests, and the host fingerprint.
//
// Everything here sits OUTSIDE the radiocast library: layers are timed by
// wrapping calls into their public functions, never by instrumenting src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "obs/json.h"
#include "sim/simulator.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(clock_type::time_point start);

/// Nanoseconds on the monotonic clock (for span and hook timestamps).
std::int64_t now_ns();

/// Spans recorded around calls into the library: name, parent, start, end.
/// Kept in memory and exported at the end of a traced run. A disabled log
/// records nothing, so plain runs pay no tracing cost.
class span_log {
 public:
  explicit span_log(bool enabled) : enabled_(enabled) {}

  /// RAII handle closing the span it opened.
  class scope {
   public:
    scope(span_log* log, int index) : log_(log), index_(index) {}
    ~scope();
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    span_log* log_;
    int index_;
  };

  scope open(const std::string& name);

  /// [{"name", "parent", "start_ns", "end_ns"}, ...]; start times relative
  /// to the first span.
  radiocast::obs::json_value to_json() const;

 private:
  struct record {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  bool enabled_;
  std::vector<record> spans_;
  std::vector<int> open_;
};

/// Time and call counts accumulated by timed_fault_model and its clones.
struct fault_timing {
  std::atomic<std::int64_t> begin_step_ns{0};
  std::atomic<std::int64_t> filter_ns{0};
  std::atomic<std::int64_t> calls{0};
};

/// Forwarding fault_model that times the two per-step hooks of the model it
/// wraps. clone() wraps a clone of the inner model and shares the timing
/// totals, so sharded trial batches still work; each instance accumulates
/// privately and adds its totals to the shared ones when destroyed (or on
/// flush()), keeping atomics off the per-step path.
class timed_fault_model final : public radiocast::fault::fault_model {
 public:
  timed_fault_model(radiocast::fault::fault_model* inner,
                    std::shared_ptr<fault_timing> timing);
  timed_fault_model(std::unique_ptr<radiocast::fault::fault_model> owned,
                    std::shared_ptr<fault_timing> timing);
  ~timed_fault_model() override { flush(); }
  timed_fault_model(const timed_fault_model&) = delete;
  timed_fault_model& operator=(const timed_fault_model&) = delete;

  std::string name() const override { return inner_->name(); }
  void begin_run(const radiocast::fault::run_view& view) override {
    inner_->begin_run(view);
  }
  void begin_step(const radiocast::fault::step_view& view,
                  radiocast::fault::step_faults* out) override;
  void filter_deliveries(
      const radiocast::fault::step_view& view,
      std::vector<radiocast::fault::delivery_candidate>* candidates) override;
  std::int64_t pending_recoveries() const override {
    return inner_->pending_recoveries();
  }
  std::unique_ptr<radiocast::fault::fault_model> clone() const override;

  /// Adds this instance's private totals to the shared ones.
  void flush();

 private:
  radiocast::fault::fault_model* inner_;
  std::unique_ptr<radiocast::fault::fault_model> owned_;
  std::shared_ptr<fault_timing> timing_;
  std::int64_t begin_step_ns_ = 0;
  std::int64_t filter_ns_ = 0;
  std::int64_t calls_ = 0;
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// The pct-th percentile (0 < pct < 100, nearest rank) of `v`, or nullopt
/// unless at least ten samples lie strictly beyond it — the rule for
/// reporting a tail percentile.
std::optional<double> tail_percentile(std::vector<double> v, double pct);

/// FNV-1a over a stream of 64-bit words; digests pin deterministic outputs.
class digest {
 public:
  void add(std::int64_t word);
  void add(const std::string& bytes);
  void add(const std::vector<std::int64_t>& words);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of a trial record's deterministic fields (wall_ms excluded).
void add_record(digest& d, const radiocast::trial_record& t);

/// Peak resident set size of this process, in MB (VmHWM).
double peak_rss_mb();

/// CPUs this process may run on (sched affinity), at least 1.
int available_cpus();

/// nproc, hardware_threads, CPU model, compiler, and build type.
radiocast::obs::json_value host_fingerprint();

/// Σ_v transmissions(v) · out_degree(v): receptions a run attempted.
std::int64_t edge_visits(const radiocast::graph& g,
                         const radiocast::run_result& r);

/// Σ_v (steps − informed_at[v]) over informed nodes: node-steps spent in
/// the awake list (equal to the sum of the `sim.awake` series on a
/// fault-free run).
std::int64_t awake_node_steps(const radiocast::run_result& r);

/// Bytes a finalized graph's CSR storage holds, computed from n and m:
/// (n+1) offsets and one node id per out-edge slot, doubled for directed
/// graphs (which also store the in-direction).
std::int64_t csr_bytes_computed(const radiocast::graph& g);

}  // namespace perfbench
