// Campaign runner — resumable sharded parameter sweeps.
//
// A campaign executes its manifest's grid as a flat list of SHARDS: each
// grid point's seed range [0, trials_per_point) is cut into contiguous
// slices of shard_size trials, numbered globally in (point, seed) order.
// Shard boundaries are a pure function of the manifest — never of the
// host's core count or of how often the campaign was interrupted — which
// is what makes artifacts comparable across machines and resumes.
//
// A run_campaign call executes its pending shards on ONE exec::thread_pool
// of the manifest's thread count, fed with CHUNKS: contiguous seed slices
// of the pending shards, in plan order. A shard runs as one chunk unless it
// holds more than ⌈pending trials / (4·workers)⌉ trials, in which case it
// splits into equal chunks — so `threads` parallelizes across shards and
// within them, and a plan of few large shards still keeps every worker
// busy. Each worker runs its chunk through the serial run_trials on the
// point's shared graph and protocol and serializes the trial records to
// NDJSON text itself. The calling thread retires chunks strictly in plan
// order: a shard's first chunk opens its `.tmp` artifact and writes the
// header (campaign/artifact.h), every chunk appends its text, and the last
// one writes the footer, renames the artifact into place and atomically
// rewrites the checkpoint (campaign/checkpoint.h). Submission runs a few
// chunks per worker ahead of the retire cursor, so trial records never
// accumulate in process memory. After a failure no later chunk starts and
// the call returns the error with every earlier shard checkpointed. Kill
// the runner at ANY point and rerun: completed shards are skipped; `.tmp`
// files and renamed-but-unlisted artifacts are simply re-run.
//
// `merge_campaign` folds the shard artifacts back — in (point, seed)
// order, the order of serial run_trials — into one
// "radiocast.bench.v1" document, byte-identical (wall-clock keys aside)
// whether the campaign ran uninterrupted, was resumed five times, or ran
// with any thread count. See docs/CAMPAIGNS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/manifest.h"
#include "obs/json.h"

namespace radiocast::campaign {

/// One planned work unit: a contiguous trial slice of one grid point.
struct shard_plan {
  int shard = 0;        ///< campaign-global shard id (also the file number)
  int point = 0;        ///< index into manifest.grid
  int first_trial = 0;  ///< index of the first trial within its point
  int count = 0;        ///< trials in this shard
  std::uint64_t base_seed = 0;  ///< manifest.base_seed + first_trial
};

/// Deterministic shard plan of a manifest: every grid point's trials in
/// slices of shard_size (0 ⇒ one shard per point), in (point, seed) order.
std::vector<shard_plan> plan_shards(const manifest& m);

/// Artifact file name of a shard, e.g. "shard_0007.ndjson".
std::string shard_file_name(int shard);

struct campaign_options {
  std::string out_dir;  ///< artifact root: checkpoint.json + shards/
  /// Stop (cleanly, checkpointed) after executing this many shards in this
  /// invocation; −1 = run to completion. The CI interruption drill and the
  /// resume tests use this to cut a campaign mid-flight deterministically.
  int stop_after = -1;
  /// Discard any existing checkpoint and shard artifacts and start over.
  /// Without it, a checkpoint whose fingerprint does not match the
  /// manifest is a hard error — never a silent mix of incompatible shards.
  bool fresh = false;
  std::ostream* log = nullptr;  ///< optional progress lines, one per shard
};

struct campaign_result {
  bool ok = false;        ///< false ⇒ see error (nothing was corrupted)
  std::string error;
  int total_shards = 0;
  int skipped = 0;   ///< shards already completed by a previous invocation
  int executed = 0;  ///< shards run (and checkpointed) by this invocation
  bool finished = false;  ///< every shard of the campaign is now complete
};

/// Runs (or resumes) the campaign into opts.out_dir. Creates the directory
/// tree, skips checkpointed shards whose artifact files exist, executes
/// the rest on one pool, and retires and checkpoints them in shard order.
campaign_result run_campaign(const manifest& m, const campaign_options& opts);

/// Folds a finished campaign's shard artifacts into one
/// "radiocast.bench.v1" document (one case per grid point, trials in seed
/// order — the layout bench::reporter writes, so radiocast_inspect
/// print/validate/diff work unchanged). Returns std::nullopt with a
/// diagnostic when any shard is missing, incomplete, or inconsistent with
/// the manifest's plan.
std::optional<obs::json_value> merge_campaign(const manifest& m,
                                              const std::string& out_dir,
                                              std::string* error = nullptr);

}  // namespace radiocast::campaign
