// Campaign checkpoints — crash-safe progress records.
//
// After every shard lands (its NDJSON file renamed into place), the runner
// rewrites `checkpoint.json` (schema "radiocast.checkpoint.v1") listing the
// completed shard ids:
//
//   {"schema":"radiocast.checkpoint.v1","campaign":…,
//    "manifest_fingerprint":…, "total_shards":N,
//    "completed":[0,1,5], "updated_unix_ms":…}
//
// Updates are atomic (write to `checkpoint.json.tmp`, then rename), so the
// file on disk is always a complete, parseable document — an interrupted
// campaign resumes by loading it and skipping every listed shard. The
// fingerprint ties the checkpoint to one manifest: resuming with an edited
// manifest is a hard error, never a silent mix of incompatible shards.
//
// `updated_unix_ms` is wall clock — the ONE sanctioned, allow-annotated
// wall-clock read in src/campaign/ (rule R2, docs/STATIC_ANALYSIS.md). It
// is operator telemetry ("when did this campaign last make progress?") and
// never feeds back into results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"

namespace radiocast::campaign {

/// Schema tag of the checkpoint document.
inline constexpr char kCheckpointSchema[] = "radiocast.checkpoint.v1";

struct checkpoint {
  std::string campaign;
  std::uint64_t manifest_fingerprint = 0;
  int total_shards = 0;
  std::vector<int> completed;  ///< sorted, unique shard ids
  std::int64_t updated_unix_ms = 0;

  bool is_completed(int shard) const;
  /// Records `shard` as done (idempotent; keeps `completed` sorted).
  void mark_completed(int shard);

  obs::json_value to_json() const;
};

/// Parses a checkpoint document; nullopt + diagnostic on schema violations.
std::optional<checkpoint> parse_checkpoint(const obs::json_value& doc,
                                           std::string* error = nullptr);

/// Loads `path`; nullopt with an EMPTY error when the file simply does not
/// exist (a fresh campaign), nullopt with a diagnostic on corruption.
std::optional<checkpoint> load_checkpoint(const std::string& path,
                                          std::string* error = nullptr);

/// Atomically rewrites `path`: serializes to `path + ".tmp"`, then renames
/// over the destination. Stamps updated_unix_ms. Throws on I/O failure.
void save_checkpoint(const checkpoint& cp, const std::string& path);

}  // namespace radiocast::campaign
