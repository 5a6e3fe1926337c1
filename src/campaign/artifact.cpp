#include "campaign/artifact.h"

#include <fstream>
#include <limits>
#include <utility>

#include "obs/ndjson.h"

namespace radiocast::campaign {

namespace {

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// The integer member `key` of `doc`, checked to lie in [lo, hi] (see
/// json_value::as_exact_int). std::nullopt on a missing or invalid value,
/// with a diagnostic naming the key in *error when given.
std::optional<std::int64_t> int_field(
    const obs::json_value& doc, const std::string& key,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max(),
    std::string* error = nullptr) {
  const obs::json_value* v = doc.find(key);
  if (v == nullptr) {
    if (error != nullptr) *error = "missing integer \"" + key + "\"";
    return std::nullopt;
  }
  return obs::int_in_range(*v, key, lo, hi, error);
}

bool get_int(const obs::json_value& doc, const std::string& key,
             std::int64_t* out) {
  const std::optional<std::int64_t> v = int_field(doc, key);
  if (v) *out = *v;
  return v.has_value();
}

}  // namespace

obs::json_value header_record(const shard_header& h) {
  obs::json_value doc = obs::json_value::object();
  doc.set("record", "header");
  doc.set("schema", kShardSchema);
  doc.set("campaign", h.campaign);
  doc.set("shard", h.shard);
  doc.set("point", h.point);
  doc.set("case", h.case_name);
  doc.set("params", h.params);
  doc.set("first_trial", h.first_trial);
  doc.set("trials", h.trials);
  doc.set("base_seed", static_cast<std::int64_t>(h.base_seed));
  return doc;
}

obs::json_value trial_record_json(const trial_record& t) {
  obs::json_value doc = obs::json_value::object();
  doc.set("record", "trial");
  doc.set("seed", static_cast<std::int64_t>(t.seed));
  doc.set("completed", t.completed);
  doc.set("steps", t.steps);
  doc.set("informed_step", t.informed_step);
  doc.set("transmissions", t.transmissions);
  doc.set("collisions", t.collisions);
  doc.set("deliveries", t.deliveries);
  doc.set("crashed_nodes", t.crashed_nodes);
  doc.set("suppressed_deliveries", t.suppressed_deliveries);
  doc.set("churned_edges", t.churned_edges);
  doc.set("recoveries", t.recoveries);
  doc.set("reachable_nodes", t.reachable_nodes);
  doc.set("informed_reachable", t.informed_reachable);
  doc.set("outcome", run_outcome_name(t.outcome));
  doc.set("wall_ms", t.wall_ms);
  return doc;
}

obs::json_value footer_record(int shard, int trials_written) {
  obs::json_value doc = obs::json_value::object();
  doc.set("record", "footer");
  doc.set("shard", shard);
  doc.set("trials_written", trials_written);
  return doc;
}

std::optional<shard_header> parse_header(const obs::json_value& doc,
                                         std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<shard_header> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const obs::json_value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kShardSchema) {
    return fail(std::string("shard header schema must be \"") + kShardSchema +
                "\"");
  }
  shard_header h;
  const obs::json_value* campaign = doc.find("campaign");
  const obs::json_value* case_name = doc.find("case");
  const obs::json_value* params = doc.find("params");
  if (campaign == nullptr || !campaign->is_string() || case_name == nullptr ||
      !case_name->is_string() || params == nullptr || !params->is_object()) {
    return fail("shard header needs campaign/case strings and a params object");
  }
  h.campaign = campaign->as_string();
  h.case_name = case_name->as_string();
  h.params = *params;
  std::string detail;
  const std::optional<std::int64_t> shard =
      int_field(doc, "shard", 0, kIntMax, &detail);
  if (!shard) return fail("shard header: " + detail);
  const std::optional<std::int64_t> point =
      int_field(doc, "point", 0, kIntMax, &detail);
  if (!point) return fail("shard header: " + detail);
  const std::optional<std::int64_t> first =
      int_field(doc, "first_trial", 0, kIntMax, &detail);
  if (!first) return fail("shard header: " + detail);
  const std::optional<std::int64_t> trials =
      int_field(doc, "trials", 1, kIntMax, &detail);
  if (!trials) return fail("shard header: " + detail);
  // A seed is a 64-bit pattern, written as int64.
  const std::optional<std::int64_t> base_seed =
      int_field(doc, "base_seed", std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max(), &detail);
  if (!base_seed) return fail("shard header: " + detail);
  h.shard = static_cast<int>(*shard);
  h.point = static_cast<int>(*point);
  h.first_trial = static_cast<int>(*first);
  h.trials = static_cast<int>(*trials);
  h.base_seed = static_cast<std::uint64_t>(*base_seed);
  return h;
}

std::optional<trial_record> parse_trial(const obs::json_value& doc,
                                        std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<trial_record> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  trial_record t;
  std::int64_t seed = 0;
  if (!get_int(doc, "seed", &seed)) return fail("trial record missing seed");
  t.seed = static_cast<std::uint64_t>(seed);
  const obs::json_value* completed = doc.find("completed");
  if (completed == nullptr ||
      completed->type() != obs::json_value::kind::boolean) {
    return fail("trial record missing boolean completed");
  }
  t.completed = completed->as_bool();
  if (!get_int(doc, "steps", &t.steps) ||
      !get_int(doc, "informed_step", &t.informed_step) ||
      !get_int(doc, "transmissions", &t.transmissions) ||
      !get_int(doc, "collisions", &t.collisions) ||
      !get_int(doc, "deliveries", &t.deliveries) ||
      !get_int(doc, "crashed_nodes", &t.crashed_nodes) ||
      !get_int(doc, "suppressed_deliveries", &t.suppressed_deliveries) ||
      !get_int(doc, "churned_edges", &t.churned_edges)) {
    return fail("trial record is missing an integer field");
  }
  // Recovery/partition accounting arrived after the shard schema shipped:
  // absent keys default (pre-recovery shards resume cleanly), present keys
  // must still be well-formed.
  if (doc.contains("recoveries") && !get_int(doc, "recoveries", &t.recoveries)) {
    return fail("trial record recoveries must be an integer");
  }
  if (doc.contains("reachable_nodes") &&
      !get_int(doc, "reachable_nodes", &t.reachable_nodes)) {
    return fail("trial record reachable_nodes must be an integer");
  }
  if (doc.contains("informed_reachable") &&
      !get_int(doc, "informed_reachable", &t.informed_reachable)) {
    return fail("trial record informed_reachable must be an integer");
  }
  if (const obs::json_value* outcome = doc.find("outcome");
      outcome != nullptr) {
    if (!outcome->is_string()) {
      return fail("trial record outcome must be a string");
    }
    const std::string& tag = outcome->as_string();
    if (tag == "completed") {
      t.outcome = run_outcome::completed;
    } else if (tag == "stuck") {
      t.outcome = run_outcome::stuck;
    } else if (tag == "unreachable") {
      t.outcome = run_outcome::unreachable;
    } else if (tag == "source_lost") {
      t.outcome = run_outcome::source_lost;
    } else {
      return fail("trial record has unknown outcome \"" + tag + "\"");
    }
  } else {
    // Old shards: infer the only distinction they could express.
    t.outcome = t.completed ? run_outcome::completed : run_outcome::stuck;
  }
  const obs::json_value* wall = doc.find("wall_ms");
  if (wall == nullptr || !wall->is_number()) {
    return fail("trial record missing numeric wall_ms");
  }
  t.wall_ms = wall->as_double();
  return t;
}

std::optional<shard_artifact> read_shard_file(const std::string& path,
                                              std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<shard_artifact> {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot read");
  obs::ndjson_reader reader(in);
  shard_artifact out;
  bool saw_header = false;
  int footer_trials = -1;
  while (std::optional<obs::json_value> doc = reader.next()) {
    const obs::json_value* record = doc->find("record");
    if (record == nullptr || !record->is_string()) {
      return fail("line " + std::to_string(reader.line()) +
                  ": missing \"record\" discriminator");
    }
    const std::string& kind = record->as_string();
    std::string detail;
    if (kind == "header") {
      if (saw_header) return fail("duplicate header record");
      std::optional<shard_header> h = parse_header(*doc, &detail);
      if (!h) return fail(detail);
      out.header = std::move(*h);
      saw_header = true;
    } else if (kind == "trial") {
      if (!saw_header) return fail("trial record before the header");
      if (footer_trials != -1) return fail("trial record after the footer");
      std::optional<trial_record> t = parse_trial(*doc, &detail);
      if (!t) return fail(detail);
      // Seeds must be the header's contiguous range, in order.
      const std::uint64_t expected =
          out.header.base_seed + out.trials.size();
      if (t->seed != expected) {
        return fail("trial seed " + std::to_string(t->seed) +
                    " out of order (expected " + std::to_string(expected) +
                    ")");
      }
      out.trials.push_back(*t);
    } else if (kind == "footer") {
      if (!saw_header) return fail("footer record before the header");
      const std::optional<std::int64_t> written =
          int_field(*doc, "trials_written", 0, kIntMax, &detail);
      if (!written) return fail("footer: " + detail);
      footer_trials = static_cast<int>(*written);
    } else {
      return fail("unknown record type \"" + kind + "\"");
    }
  }
  if (reader.failed()) return fail(reader.error());
  if (!saw_header) return fail("no header record");
  // Torn tail (reader.truncated()) or missing/short footer ⇒ incomplete,
  // but the intact prefix is still returned for inspection.
  out.complete = !reader.truncated() && footer_trials != -1 &&
                 footer_trials == static_cast<int>(out.trials.size()) &&
                 footer_trials == out.header.trials;
  return out;
}

bool is_wall_clock_key(const std::string& key) {
  // Any "*speedup" ratio (speedup, soa_speedup, det_soa_speedup, …) is
  // derived from same-process wall-clock pairs, like off_over_on.
  if (key.size() >= 7 &&
      key.compare(key.size() - 7, 7, "speedup") == 0) {
    return true;
  }
  if (key == "off_over_on") return true;
  if (key.rfind("steps_per_sec", 0) == 0) return true;
  return key.size() >= 3 && key.compare(key.size() - 3, 3, "_ms") == 0;
}

obs::json_value strip_wall_clock_keys(const obs::json_value& v) {
  if (v.is_array()) {
    obs::json_value out = obs::json_value::array();
    for (const obs::json_value& item : v.items()) {
      out.push_back(strip_wall_clock_keys(item));
    }
    return out;
  }
  if (v.is_object()) {
    obs::json_value out = obs::json_value::object();
    for (const auto& [key, member] : v.members()) {
      if (is_wall_clock_key(key)) continue;
      out.set(key, strip_wall_clock_keys(member));
    }
    return out;
  }
  return v;
}

}  // namespace radiocast::campaign
