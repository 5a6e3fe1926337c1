#include "campaign/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "util/assert.h"

namespace radiocast::campaign {

namespace {

std::int64_t now_unix_ms() {
  // Operator telemetry only: the timestamp records when the campaign last
  // made durable progress and never influences seeds, schedules, or
  // records (docs/CAMPAIGNS.md).
  const auto since_epoch =
      // radiocast-analyze: allow(wall-clock) -- checkpoint freshness
      // timestamp: display-only metadata, never reaches results
      std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::milliseconds>(since_epoch)
      .count();
}

}  // namespace

bool checkpoint::is_completed(int shard) const {
  return std::binary_search(completed.begin(), completed.end(), shard);
}

void checkpoint::mark_completed(int shard) {
  const auto it = std::lower_bound(completed.begin(), completed.end(), shard);
  if (it != completed.end() && *it == shard) return;
  completed.insert(it, shard);
}

obs::json_value checkpoint::to_json() const {
  obs::json_value doc = obs::json_value::object();
  doc.set("schema", kCheckpointSchema);
  doc.set("campaign", campaign);
  doc.set("manifest_fingerprint",
          static_cast<std::int64_t>(manifest_fingerprint));
  doc.set("total_shards", total_shards);
  obs::json_value done = obs::json_value::array();
  for (const int shard : completed) done.push_back(shard);
  doc.set("completed", std::move(done));
  doc.set("updated_unix_ms", updated_unix_ms);
  return doc;
}

std::optional<checkpoint> parse_checkpoint(const obs::json_value& doc,
                                           std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<checkpoint> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const obs::json_value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kCheckpointSchema) {
    return fail(std::string("checkpoint schema must be \"") +
                kCheckpointSchema + "\"");
  }
  checkpoint cp;
  const obs::json_value* campaign = doc.find("campaign");
  if (campaign == nullptr || !campaign->is_string()) {
    return fail("checkpoint needs a string \"campaign\"");
  }
  cp.campaign = campaign->as_string();
  const obs::json_value* fp = doc.find("manifest_fingerprint");
  const obs::json_value* total = doc.find("total_shards");
  const obs::json_value* updated = doc.find("updated_unix_ms");
  if (fp == nullptr || total == nullptr || updated == nullptr) {
    return fail("checkpoint is missing an integer field");
  }
  constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  std::string detail;
  // The fingerprint is a 64-bit pattern, written as int64.
  const std::optional<std::int64_t> fp_value = obs::int_in_range(
      *fp, "manifest_fingerprint", kInt64Min, kInt64Max, &detail);
  if (!fp_value) return fail(detail);
  const std::optional<std::int64_t> total_value =
      obs::int_in_range(*total, "total_shards", 0, kIntMax, &detail);
  if (!total_value) return fail(detail);
  const std::optional<std::int64_t> updated_value = obs::int_in_range(
      *updated, "updated_unix_ms", kInt64Min, kInt64Max, &detail);
  if (!updated_value) return fail(detail);
  cp.manifest_fingerprint = static_cast<std::uint64_t>(*fp_value);
  cp.total_shards = static_cast<int>(*total_value);
  cp.updated_unix_ms = *updated_value;
  const obs::json_value* done = doc.find("completed");
  if (done == nullptr || !done->is_array()) {
    return fail("checkpoint needs a \"completed\" array");
  }
  for (std::size_t i = 0; i < done->items().size(); ++i) {
    const std::optional<std::int64_t> shard = obs::int_in_range(
        done->items()[i], "completed[" + std::to_string(i) + "]", 0, kIntMax,
        &detail);
    if (!shard) return fail(detail);
    cp.completed.push_back(static_cast<int>(*shard));
  }
  if (!std::is_sorted(cp.completed.begin(), cp.completed.end())) {
    return fail("completed shard list is not sorted");
  }
  return cp;
}

std::optional<checkpoint> load_checkpoint(const std::string& path,
                                          std::string* error) {
  if (error != nullptr) error->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // no checkpoint yet: empty error
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string detail;
  std::optional<obs::json_value> doc = obs::json_parse(ss.str(), &detail);
  if (!doc) {
    if (error != nullptr) *error = path + ": " + detail;
    return std::nullopt;
  }
  std::optional<checkpoint> cp = parse_checkpoint(*doc, &detail);
  if (!cp && error != nullptr) *error = path + ": " + detail;
  return cp;
}

void save_checkpoint(const checkpoint& cp, const std::string& path) {
  checkpoint stamped = cp;
  stamped.updated_unix_ms = now_unix_ms();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    RC_CHECK_MSG(static_cast<bool>(out),
                 "cannot open checkpoint temp file " + tmp);
    stamped.to_json().write(out, 2);
    out << '\n';
    out.flush();
    RC_CHECK_MSG(static_cast<bool>(out),
                 "short write to checkpoint temp file " + tmp);
  }
  RC_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot rename " + tmp + " over " + path);
}

}  // namespace radiocast::campaign
