// The four benchmark workloads and the report they fill.
//
// Each run is one process running one workload with one seed. A plain run
// reports the end-to-end metrics with tracing off; a traced run reports
// the per-layer metrics (and the tracing overhead against untraced units of
// the same run). Both kinds check every output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "probes.h"

namespace perfbench {

/// The seed whose outputs are pinned (see derive_pins).
inline constexpr std::uint64_t kDefaultSeed = 1;

struct run_config {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working space for campaign artifacts
};

/// Failure accounting, metrics, and details of one run.
class run_report {
 public:
  /// Counts one attempted operation or output check; `ok == false` counts
  /// it failed and keeps `what` as the reason.
  void attempt(bool ok, const std::string& what);
  void metric(const std::string& name, const std::string& unit, double value);
  void detail(const std::string& key, radiocast::obs::json_value value);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// {"correct", "attempted", "failed", "failed_frac", "failures",
  ///  "metrics": {name: {"value", "unit"}}, "details"}.
  radiocast::obs::json_value to_json() const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  radiocast::obs::json_value metrics_ = radiocast::obs::json_value::object();
  radiocast::obs::json_value details_ = radiocast::obs::json_value::object();
};

/// "bcast_mega", "det_full", "trial_batch", "campaign_sweep".
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
void run_workload(const run_config& cfg, run_report& rep, span_log& spans);

/// Recomputes the default-seed output pins of `workload` with every
/// simulation on step_engine::reference (the oracle), for pasting into the
/// pin table in workloads.cpp.
radiocast::obs::json_value derive_pins(const std::string& workload,
                                       const std::string& work_dir);

}  // namespace perfbench
