#include "campaign/manifest.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "core/runner.h"
#include "graph/generators.h"
#include "util/assert.h"
#include "util/rng.h"

namespace radiocast::campaign {

namespace {

/// Families whose generator draws randomness (graph_seed is meaningful).
bool family_is_randomized(const std::string& family) {
  return family == "gnp" || family == "random-tree";
}

/// Families parameterized by the depth/radius knob d.
bool family_uses_d(const std::string& family) {
  return family == "complete-layered" || family == "layered-fat";
}

/// Reads the optional integer member `key` of `obj` into *out, checked to
/// lie in [lo, hi]; an absent key leaves *out as it is. A present but
/// invalid value returns false with a diagnostic naming the key (prefixed
/// by `where`, e.g. "grid[1]: ").
template <typename T>
bool read_int(const obs::json_value& obj, const std::string& key,
              std::int64_t lo, std::int64_t hi, T* out, std::string* error,
              const std::string& where = "") {
  const obs::json_value* v = obj.find(key);
  if (v == nullptr) return true;
  std::string detail;
  const std::optional<std::int64_t> i =
      obs::int_in_range(*v, key, lo, hi, &detail);
  if (!i) {
    if (error != nullptr) *error = where + detail;
    return false;
  }
  *out = static_cast<T>(*i);
  return true;
}

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

std::string format_p(double p) {
  std::ostringstream ss;
  ss << p;
  return ss.str();
}

}  // namespace

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> kFamilies = {
      "path",        "cycle",           "star",        "complete",
      "complete-layered", "layered-fat", "gnp",         "random-tree"};
  return kFamilies;
}

std::string grid_point::case_name() const {
  std::string out = family + "/n=" + std::to_string(n);
  if (family_uses_d(family)) out += "/d=" + std::to_string(d);
  if (family == "gnp") out += "/p=" + format_p(p);
  out += "/" + protocol;
  return out;
}

obs::json_value grid_point::to_json() const {
  obs::json_value v = obs::json_value::object();
  v.set("family", family);
  v.set("n", static_cast<std::int64_t>(n));
  if (family_uses_d(family)) v.set("d", d);
  if (family == "gnp") v.set("p", p);
  if (family_is_randomized(family)) {
    v.set("graph_seed", static_cast<std::int64_t>(graph_seed));
  }
  v.set("protocol", protocol);
  if (known_d > 0) v.set("known_d", known_d);
  return v;
}

obs::json_value manifest::to_json() const {
  obs::json_value doc = obs::json_value::object();
  doc.set("schema", kManifestSchema);
  doc.set("name", name);
  doc.set("base_seed", static_cast<std::int64_t>(base_seed));
  doc.set("trials_per_point", trials_per_point);
  doc.set("shard_size", shard_size);
  doc.set("threads", threads);
  doc.set("max_steps", max_steps);
  obs::json_value grid_json = obs::json_value::array();
  for (const grid_point& point : grid) grid_json.push_back(point.to_json());
  doc.set("grid", std::move(grid_json));
  return doc;
}

std::uint64_t manifest::fingerprint() const {
  // FNV-1a over the canonical serialization: any declarative change —
  // reordered grid included — changes the fingerprint.
  const std::string text = to_json().dump();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::optional<manifest> parse_manifest(const obs::json_value& doc,
                                       std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<manifest> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!doc.is_object()) return fail("manifest is not a JSON object");
  const obs::json_value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kManifestSchema) {
    return fail(std::string("manifest schema must be \"") + kManifestSchema +
                "\"");
  }
  manifest m;
  const obs::json_value* name = doc.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return fail("manifest needs a nonempty string \"name\"");
  }
  m.name = name->as_string();
  // Seeds are 64-bit patterns: to_json writes them as int64, so any int64
  // reads back.
  if (!read_int(doc, "base_seed", kInt64Min, kInt64Max, &m.base_seed,
                error) ||
      !read_int(doc, "trials_per_point", 1, kIntMax, &m.trials_per_point,
                error) ||
      !read_int(doc, "shard_size", 0, kIntMax, &m.shard_size, error) ||
      !read_int(doc, "threads", 0, kIntMax, &m.threads, error) ||
      !read_int(doc, "max_steps", 1, kInt64Max, &m.max_steps, error)) {
    return std::nullopt;
  }
  if (m.shard_size == 0) m.shard_size = m.trials_per_point;

  const obs::json_value* grid_json = doc.find("grid");
  if (grid_json == nullptr || !grid_json->is_array() ||
      grid_json->items().empty()) {
    return fail("manifest needs a nonempty \"grid\" array");
  }
  const std::vector<std::string> protocols = protocol_names();
  for (std::size_t i = 0; i < grid_json->items().size(); ++i) {
    const obs::json_value& pj = grid_json->items()[i];
    const std::string where = "grid[" + std::to_string(i) + "]";
    if (!pj.is_object()) return fail(where + " is not an object");
    grid_point point;
    const obs::json_value* family = pj.find("family");
    if (family == nullptr || !family->is_string()) {
      return fail(where + " needs a string \"family\"");
    }
    point.family = family->as_string();
    const std::vector<std::string>& families = family_names();
    if (std::find(families.begin(), families.end(), point.family) ==
        families.end()) {
      return fail(where + ": unknown family \"" + point.family + "\"");
    }
    if (!pj.contains("n")) return fail(where + " needs integer \"n\" ≥ 2");
    if (!read_int(pj, "n", 2, std::numeric_limits<node_id>::max(), &point.n,
                  error, where + ": ") ||
        !read_int(pj, "d", kIntMin, kIntMax, &point.d, error, where + ": ") ||
        !read_int(pj, "graph_seed", kInt64Min, kInt64Max, &point.graph_seed,
                  error, where + ": ") ||
        !read_int(pj, "known_d", kIntMin, kIntMax, &point.known_d, error,
                  where + ": ")) {
      return std::nullopt;
    }
    if (family_uses_d(point.family) &&
        (point.d < 1 || point.d >= point.n)) {
      return fail(where + ": family \"" + point.family +
                  "\" needs 1 ≤ d < n");
    }
    if (const obs::json_value* v = pj.find("p")) {
      if (!v->is_number()) return fail(where + ": \"p\" must be a number");
      point.p = v->as_double();
    }
    if (point.family == "gnp" && (point.p <= 0.0 || point.p > 1.0)) {
      return fail(where + ": gnp needs 0 < p ≤ 1");
    }
    const obs::json_value* proto = pj.find("protocol");
    if (proto == nullptr || !proto->is_string()) {
      return fail(where + " needs a string \"protocol\"");
    }
    point.protocol = proto->as_string();
    if (std::find(protocols.begin(), protocols.end(), point.protocol) ==
        protocols.end()) {
      return fail(where + ": unknown protocol \"" + point.protocol + "\"");
    }
    if (point.protocol == "kp" && point.known_d < 1) {
      return fail(where + ": protocol \"kp\" needs known_d ≥ 1");
    }
    m.grid.push_back(std::move(point));
  }
  return m;
}

std::optional<manifest> load_manifest(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string parse_error;
  std::optional<obs::json_value> doc = obs::json_parse(ss.str(), &parse_error);
  if (!doc) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return std::nullopt;
  }
  return parse_manifest(*doc, error);
}

graph build_graph(const grid_point& point) {
  if (point.family == "path") return make_path(point.n);
  if (point.family == "cycle") return make_cycle(point.n);
  if (point.family == "star") return make_star(point.n);
  if (point.family == "complete") return make_complete(point.n);
  if (point.family == "complete-layered") {
    return make_complete_layered_uniform(point.n, point.d);
  }
  if (point.family == "layered-fat") {
    return make_complete_layered_fat(point.n, point.d, point.d);
  }
  if (point.family == "gnp") {
    rng gen(point.graph_seed);
    return make_gnp_connected(point.n, point.p, gen);
  }
  if (point.family == "random-tree") {
    rng gen(point.graph_seed);
    return make_random_tree(point.n, gen);
  }
  RC_REQUIRE_MSG(false, "unknown graph family \"" + point.family + "\"");
}

std::unique_ptr<protocol> build_protocol(const grid_point& point) {
  return make_protocol(point.protocol, point.n - 1, point.known_d);
}

}  // namespace radiocast::campaign
