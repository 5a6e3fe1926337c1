// radiocast_inspect — reads the JSON artifacts this repository's tooling
// emits: BENCH_<name>.json bench telemetry (schema "radiocast.bench.v1";
// see docs/OBSERVABILITY.md), radiocast_analyze reports (schema
// "radiocast.analysis.v1"; see docs/STATIC_ANALYSIS.md), and
// radiocast_chaos fuzzing reports (schema "radiocast.chaos.v1"; see
// docs/FAULTS.md).
//
//   radiocast_inspect print    FILE        human-readable summary
//   radiocast_inspect validate FILE...     schema check; exit 1 on failure
//                                          (dispatches on the "schema" key)
//   radiocast_inspect diff     OLD NEW     numeric per-case comparison;
//                                          wall-clock keys excluded, exit 1
//                                          beyond tolerance
//   radiocast_inspect analyze  TRACE       trace analytics (first-delivery
//                                          tree, wake timeline, hotspots)
//   radiocast_inspect regress  BASE FRESH  perf-regression gate; exit 1 on
//                                          a regression past tolerance
//
// `validate` is what scripts/reproduce.sh's smoke target runs against every
// artifact: it fails on any missing required key, so a bench that silently
// stops filling a field breaks CI instead of producing holes in the data.
// `regress` is the CI perf gate (scripts/ci.sh, bench/baselines/).
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/artifact.h"
#include "campaign/regress.h"
#include "fault/chaos.h"
#include "obs/json.h"
#include "sim/trace_analysis.h"

namespace radiocast {
namespace {

using obs::json_value;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool load(const std::string& path, json_value* out) {
  std::string text;
  if (!read_file(path, &text)) {
    std::cerr << "error: cannot read " << path << "\n";
    return false;
  }
  std::string error;
  std::optional<json_value> doc = obs::json_parse(text, &error);
  if (!doc) {
    std::cerr << "error: " << path << ": " << error << "\n";
    return false;
  }
  *out = std::move(*doc);
  return true;
}

std::string fmt(double v, int prec = 1) {
  if (std::isnan(v)) return "-";
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(prec) << v;
  return ss.str();
}

double number_or_nan(const json_value* v) {
  return v != nullptr && v->is_number() ? v->as_double() : std::nan("");
}

// ---------------------------------------------------------------------------
// validate
// ---------------------------------------------------------------------------

struct validator {
  std::string path;
  int failures = 0;

  void fail(const std::string& what) {
    std::cerr << path << ": " << what << "\n";
    ++failures;
  }

  void require(const json_value& obj, const std::string& where,
               const std::string& key, json_value::kind k) {
    const json_value* v = obj.find(key);
    if (v == nullptr) {
      fail(where + ": missing required key \"" + key + "\"");
      return;
    }
    const bool numeric_ok =
        (k == json_value::kind::number || k == json_value::kind::integer) &&
        v->is_number();
    if (v->type() != k && !numeric_ok) {
      fail(where + ": key \"" + key + "\" has the wrong type");
    }
  }

  /// Type-checks `key` only when present: newer writers add keys that
  /// older artifacts (committed BENCH_*.json) legitimately lack.
  void optional(const json_value& obj, const std::string& where,
                const std::string& key, json_value::kind k) {
    if (obj.contains(key)) require(obj, where, key, k);
  }

  void check_trial(const json_value& t, const std::string& where) {
    require(t, where, "seed", json_value::kind::integer);
    require(t, where, "completed", json_value::kind::boolean);
    require(t, where, "steps", json_value::kind::integer);
    require(t, where, "informed_step", json_value::kind::integer);
    require(t, where, "transmissions", json_value::kind::integer);
    require(t, where, "collisions", json_value::kind::integer);
    require(t, where, "deliveries", json_value::kind::integer);
    require(t, where, "wall_ms", json_value::kind::number);
    // Fault accounting, added with the fault-injection subsystem.
    optional(t, where, "crashed_nodes", json_value::kind::integer);
    optional(t, where, "suppressed_deliveries", json_value::kind::integer);
    optional(t, where, "churned_edges", json_value::kind::integer);
    // Recovery and partition-tolerant accounting (crash-recovery PR).
    optional(t, where, "recoveries", json_value::kind::integer);
    optional(t, where, "reachable_nodes", json_value::kind::integer);
    optional(t, where, "informed_reachable", json_value::kind::integer);
    const json_value* outcome = t.find("outcome");
    if (outcome != nullptr) {
      if (!outcome->is_string()) {
        fail(where + ": key \"outcome\" has the wrong type");
      } else {
        const std::string& tag = outcome->as_string();
        if (tag != "completed" && tag != "stuck" && tag != "unreachable" &&
            tag != "source_lost") {
          fail(where + ": unknown outcome \"" + tag + "\"");
        }
      }
    }
  }

  void check_case(const json_value& c, const std::string& where) {
    require(c, where, "name", json_value::kind::string);
    require(c, where, "params", json_value::kind::object);
    require(c, where, "trials", json_value::kind::array);
    require(c, where, "timeout_rate", json_value::kind::number);
    require(c, where, "wall_ms", json_value::kind::number);
    require(c, where, "steps", json_value::kind::object);
    // Parallel-execution telemetry, added with src/exec/: worker count,
    // whole-batch wall clock, and trial-throughput speedup.
    optional(c, where, "threads", json_value::kind::integer);
    optional(c, where, "batch_wall_ms", json_value::kind::number);
    optional(c, where, "speedup", json_value::kind::number);
    // Step-engine telemetry: the frontier_speedup analytic case records
    // per-engine wall clock and throughput; its frontier_* keys hold the
    // soa engine's awake-set walk (see bench_simulator_throughput.cpp).
    const json_value* values = c.find("values");
    if (values != nullptr && values->is_object()) {
      const std::string vwhere = where + ".values";
      optional(*values, vwhere, "reference_min_ms", json_value::kind::number);
      optional(*values, vwhere, "frontier_min_ms", json_value::kind::number);
      optional(*values, vwhere, "steps_per_sec_reference",
               json_value::kind::number);
      optional(*values, vwhere, "steps_per_sec_frontier",
               json_value::kind::number);
      optional(*values, vwhere, "speedup", json_value::kind::number);
      optional(*values, vwhere, "steps", json_value::kind::integer);
      // SoA-engine telemetry, added with the mega_scale analytic case:
      // soa traits vs the polling walk's wall clock/throughput and the
      // million-node completion runs (see check_mega_scale in
      // bench_simulator_throughput.cpp).
      optional(*values, vwhere, "soa_min_ms", json_value::kind::number);
      optional(*values, vwhere, "steps_per_sec_soa",
               json_value::kind::number);
      optional(*values, vwhere, "soa_speedup", json_value::kind::number);
      optional(*values, vwhere, "mega_n", json_value::kind::integer);
      optional(*values, vwhere, "mega_layered_wall_ms",
               json_value::kind::number);
      optional(*values, vwhere, "mega_layered_steps",
               json_value::kind::integer);
      optional(*values, vwhere, "mega_gnp_wall_ms",
               json_value::kind::number);
      optional(*values, vwhere, "mega_gnp_steps",
               json_value::kind::integer);
    }
    const json_value* trials = c.find("trials");
    if (trials != nullptr && trials->is_array()) {
      for (std::size_t i = 0; i < trials->items().size(); ++i) {
        check_trial(trials->items()[i],
                    where + ".trials[" + std::to_string(i) + "]");
      }
      // A case with completed trials must carry the percentile block; an
      // analytic case (no trials) must carry "values" instead.
      const json_value* steps = c.find("steps");
      bool any_completed = false;
      for (const json_value& t : trials->items()) {
        const json_value* done = t.find("completed");
        if (done != nullptr && done->as_bool()) any_completed = true;
      }
      if (any_completed && steps != nullptr && steps->is_object()) {
        for (const char* key :
             {"mean", "stddev", "min", "p50", "p90", "p95", "p99", "max"}) {
          require(*steps, where + ".steps", key, json_value::kind::number);
        }
      }
      if (trials->items().empty() && !c.contains("values")) {
        fail(where + ": no trials and no \"values\" block");
      }
    }
  }

  /// radiocast.analysis.v1: the report radiocast_analyze --json writes —
  /// pass/path/line findings, a counted summary, the layer list and the
  /// include DAG.
  void check_analysis_finding(const json_value& f, const std::string& where,
                              bool suppressed) {
    require(f, where, "pass", json_value::kind::string);
    require(f, where, "path", json_value::kind::string);
    require(f, where, "line", json_value::kind::integer);
    require(f, where, "message", json_value::kind::string);
    require(f, where, "snippet", json_value::kind::string);
    if (suppressed) {
      require(f, where, "justification", json_value::kind::string);
    }
  }

  bool run_analysis(const json_value& doc) {
    require(doc, "root", "tool", json_value::kind::string);
    require(doc, "root", "files_scanned", json_value::kind::integer);
    require(doc, "root", "passes", json_value::kind::array);
    require(doc, "root", "layers", json_value::kind::array);
    require(doc, "root", "include_graph", json_value::kind::object);
    require(doc, "root", "findings", json_value::kind::array);
    require(doc, "root", "suppressed", json_value::kind::array);
    require(doc, "root", "summary", json_value::kind::object);
    const json_value* pass_table = doc.find("passes");
    if (pass_table != nullptr && pass_table->is_array()) {
      if (pass_table->items().empty()) fail("passes array is empty");
      for (std::size_t i = 0; i < pass_table->items().size(); ++i) {
        const std::string where = "passes[" + std::to_string(i) + "]";
        require(pass_table->items()[i], where, "id",
                json_value::kind::string);
        require(pass_table->items()[i], where, "summary",
                json_value::kind::string);
      }
    }
    const json_value* layers = doc.find("layers");
    if (layers != nullptr && layers->is_array() && layers->items().empty()) {
      fail("layers array is empty");
    }
    const json_value* graph = doc.find("include_graph");
    if (graph != nullptr && graph->is_object()) {
      require(*graph, "include_graph", "nodes", json_value::kind::array);
      require(*graph, "include_graph", "edges", json_value::kind::array);
      const json_value* nodes = graph->find("nodes");
      if (nodes != nullptr && nodes->is_array()) {
        for (std::size_t i = 0; i < nodes->items().size(); ++i) {
          const std::string where =
              "include_graph.nodes[" + std::to_string(i) + "]";
          require(nodes->items()[i], where, "path",
                  json_value::kind::string);
          require(nodes->items()[i], where, "layer",
                  json_value::kind::string);
        }
      }
      const json_value* edges = graph->find("edges");
      if (edges != nullptr && edges->is_array()) {
        for (std::size_t i = 0; i < edges->items().size(); ++i) {
          const std::string where =
              "include_graph.edges[" + std::to_string(i) + "]";
          require(edges->items()[i], where, "from",
                  json_value::kind::string);
          require(edges->items()[i], where, "to", json_value::kind::string);
        }
      }
    }
    for (const char* key : {"findings", "suppressed"}) {
      const json_value* arr = doc.find(key);
      if (arr == nullptr || !arr->is_array()) continue;
      for (std::size_t i = 0; i < arr->items().size(); ++i) {
        check_analysis_finding(
            arr->items()[i],
            std::string(key) + "[" + std::to_string(i) + "]",
            std::string(key) == "suppressed");
      }
    }
    const json_value* summary = doc.find("summary");
    if (summary != nullptr && summary->is_object()) {
      require(*summary, "summary", "findings", json_value::kind::integer);
      require(*summary, "summary", "suppressed", json_value::kind::integer);
      require(*summary, "summary", "clean", json_value::kind::boolean);
      require(*summary, "summary", "by_pass", json_value::kind::object);
      const json_value* open = doc.find("findings");
      const json_value* supp = doc.find("suppressed");
      const json_value* n_open = summary->find("findings");
      const json_value* n_supp = summary->find("suppressed");
      if (open != nullptr && open->is_array() && n_open != nullptr &&
          n_open->as_int() !=
              static_cast<std::int64_t>(open->items().size())) {
        fail("summary.findings disagrees with the findings array");
      }
      if (supp != nullptr && supp->is_array() && n_supp != nullptr &&
          n_supp->as_int() !=
              static_cast<std::int64_t>(supp->items().size())) {
        fail("summary.suppressed disagrees with the suppressed array");
      }
    }
    return failures == 0;
  }

  bool run(const json_value& doc) {
    const json_value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string()) {
      fail("missing required key \"schema\"");
      return false;
    }
    if (schema->as_string() == "radiocast.analysis.v1") {
      return run_analysis(doc);
    }
    if (schema->as_string() == "radiocast.chaos.v1") {
      // The chaos schema's structural validator lives with its writer
      // (src/fault/chaos.cpp) so tests can drive both against the same
      // corpus; this tool only adapts its error reporting.
      std::vector<std::string> errors;
      if (!fault::validate_chaos_report(doc, &errors)) {
        for (const std::string& e : errors) fail(e);
      }
      return failures == 0;
    }
    if (schema->as_string() != "radiocast.bench.v1") {
      fail("unknown schema \"" + schema->as_string() + "\"");
    }
    require(doc, "root", "bench", json_value::kind::string);
    require(doc, "root", "config", json_value::kind::object);
    require(doc, "root", "cases", json_value::kind::array);
    require(doc, "root", "spans", json_value::kind::array);
    const json_value* config = doc.find("config");
    if (config != nullptr && config->is_object()) {
      optional(*config, "config", "threads", json_value::kind::integer);
    }
    const json_value* cases = doc.find("cases");
    if (cases != nullptr && cases->is_array()) {
      if (cases->items().empty()) fail("cases array is empty");
      for (std::size_t i = 0; i < cases->items().size(); ++i) {
        check_case(cases->items()[i], "cases[" + std::to_string(i) + "]");
      }
    }
    return failures == 0;
  }
};

int cmd_validate(const std::vector<std::string>& files) {
  int bad = 0;
  for (const std::string& file : files) {
    json_value doc;
    if (!load(file, &doc)) {
      ++bad;
      continue;
    }
    validator v{file};
    if (v.run(doc)) {
      const json_value* cases = doc.find("cases");
      const json_value* schema = doc.find("schema");
      if (schema != nullptr && schema->is_string() &&
          schema->as_string() == "radiocast.chaos.v1") {
        const json_value* runs = doc.find("runs");
        std::cout << file << ": OK ("
                  << (runs != nullptr ? runs->as_int() : 0)
                  << " chaos runs)\n";
      } else if (cases != nullptr) {
        std::cout << file << ": OK (" << cases->items().size()
                  << " cases)\n";
      } else {
        const json_value* findings = doc.find("findings");
        std::cout << file << ": OK ("
                  << (findings != nullptr ? findings->items().size() : 0)
                  << " findings)\n";
      }
    } else {
      std::cerr << file << ": FAILED (" << v.failures << " problems)\n";
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// print
// ---------------------------------------------------------------------------

void print_spans(const json_value& spans, int depth) {
  for (const json_value& s : spans.items()) {
    const json_value* name = s.find("name");
    std::cout << std::string(static_cast<std::size_t>(depth) * 2, ' ')
              << (name != nullptr ? name->as_string() : "?") << "  "
              << fmt(number_or_nan(s.find("total_ms")), 2) << " ms  ×"
              << (s.find("count") != nullptr ? s.find("count")->as_int() : 0)
              << "\n";
    const json_value* children = s.find("children");
    if (children != nullptr && !children->items().empty()) {
      print_spans(*children, depth + 1);
    }
  }
}

int cmd_print(const std::string& file) {
  json_value doc;
  if (!load(file, &doc)) return 1;
  const json_value* bench = doc.find("bench");
  std::cout << "bench: " << (bench != nullptr ? bench->as_string() : "?")
            << "\n";
  const json_value* config = doc.find("config");
  if (config != nullptr) std::cout << "config: " << config->dump() << "\n";

  const json_value* cases = doc.find("cases");
  if (cases != nullptr && cases->is_array()) {
    std::cout << "\n"
              << std::left << std::setw(44) << "case" << std::right
              << std::setw(7) << "trials" << std::setw(10) << "mean"
              << std::setw(10) << "p95" << std::setw(9) << "t/o"
              << std::setw(11) << "wall ms" << "\n";
    for (const json_value& c : cases->items()) {
      const json_value* name = c.find("name");
      const json_value* trials = c.find("trials");
      const std::size_t n_trials =
          trials != nullptr ? trials->items().size() : 0;
      std::cout << std::left << std::setw(44)
                << (name != nullptr ? name->as_string() : "?") << std::right
                << std::setw(7) << n_trials << std::setw(10)
                << fmt(number_or_nan(c.find_path("steps.mean")))
                << std::setw(10)
                << fmt(number_or_nan(c.find_path("steps.p95"))) << std::setw(9)
                << fmt(100.0 * number_or_nan(c.find("timeout_rate")), 0) + "%"
                << std::setw(11) << fmt(number_or_nan(c.find("wall_ms")), 1)
                << "\n";
      const json_value* values = c.find("values");
      if (values != nullptr && !values->members().empty()) {
        std::cout << "    values: " << values->dump() << "\n";
      }
    }
  }
  const json_value* spans = doc.find("spans");
  if (spans != nullptr && !spans->items().empty()) {
    std::cout << "\nspans:\n";
    print_spans(*spans, 1);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Shared flag parsing for diff/regress: repeated `--tolerance key=pct`.
bool parse_tolerances(const std::vector<std::string>& args, std::size_t from,
                      std::vector<std::pair<std::string, double>>* out,
                      bool* include_wall_clock) {
  for (std::size_t i = from; i < args.size(); ++i) {
    if (args[i] == "--tolerance" && i + 1 < args.size()) {
      const std::string& spec = args[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) return false;
      out->emplace_back(spec.substr(0, eq),
                        std::atof(spec.c_str() + eq + 1));
    } else if (args[i] == "--include-wall-clock" &&
               include_wall_clock != nullptr) {
      *include_wall_clock = true;
    } else {
      return false;
    }
  }
  return true;
}

double tolerance_for_key(
    const std::vector<std::pair<std::string, double>>& tolerances,
    const std::string& key) {
  for (const auto& [k, pct] : tolerances) {
    if (k == key) return pct;
  }
  return 0.0;
}

struct diff_state {
  const std::vector<std::pair<std::string, double>>& tolerances;
  bool include_wall_clock = false;
  int flagged = 0;    ///< numeric deltas beyond tolerance (drive exit 1)
  int compared = 0;
  std::vector<std::string> notes;  ///< informational (missing keys, …)

  void flag(const std::string& path, const std::string& what) {
    ++flagged;
    std::cout << "  " << path << ": " << what << "\n";
  }
};

/// Recursive numeric comparison. Reruns of the same binary are
/// bit-identical outside the wall-clock keys, so the default tolerance is
/// 0% — any drift in a deterministic field is a finding.
void diff_values(const json_value& a, const json_value& b,
                 const std::string& path, const std::string& leaf,
                 diff_state* st) {
  if (a.is_object() && b.is_object()) {
    for (const auto& [key, member] : a.members()) {
      if (!st->include_wall_clock &&
          radiocast::campaign::is_wall_clock_key(key)) {
        continue;
      }
      const json_value* other = b.find(key);
      const std::string child = path.empty() ? key : path + "." + key;
      if (other == nullptr) {
        st->notes.push_back(child + " only in OLD");
        continue;
      }
      diff_values(member, *other, child, key, st);
    }
    for (const auto& [key, member] : b.members()) {
      (void)member;
      if (!st->include_wall_clock &&
          radiocast::campaign::is_wall_clock_key(key)) {
        continue;
      }
      if (a.find(key) == nullptr) {
        st->notes.push_back((path.empty() ? key : path + "." + key) +
                            " only in NEW");
      }
    }
    return;
  }
  if (a.is_array() && b.is_array()) {
    if (a.items().size() != b.items().size()) {
      st->flag(path, "array length " + std::to_string(a.items().size()) +
                         " vs " + std::to_string(b.items().size()));
      return;
    }
    for (std::size_t i = 0; i < a.items().size(); ++i) {
      diff_values(a.items()[i], b.items()[i],
                  path + "[" + std::to_string(i) + "]", leaf, st);
    }
    return;
  }
  if (a.is_number() && b.is_number()) {
    ++st->compared;
    const double x = a.as_double();
    const double y = b.as_double();
    if (x == y || (std::isnan(x) && std::isnan(y))) return;
    const double pct = tolerance_for_key(st->tolerances, leaf);
    const double rel =
        x != 0.0 ? 100.0 * std::fabs(y - x) / std::fabs(x)
                 : std::numeric_limits<double>::infinity();
    if (rel > pct) {
      st->flag(path, fmt(x, 6) + " -> " + fmt(y, 6) + " (" +
                         (std::isinf(rel) ? std::string("inf")
                                          : fmt(rel, 2)) +
                         "% > " + fmt(pct, 2) + "% tolerance)");
    }
    return;
  }
  // Type mismatch or non-numeric scalars: exact comparison.
  if (a.dump() != b.dump()) st->flag(path, "value mismatch");
}

int cmd_diff(const std::vector<std::string>& args) {
  std::vector<std::pair<std::string, double>> tolerances;
  bool include_wall_clock = false;
  if (args.size() < 2 ||
      !parse_tolerances(args, 2, &tolerances, &include_wall_clock)) {
    return 2;
  }
  json_value old_doc, new_doc;
  if (!load(args[0], &old_doc) || !load(args[1], &new_doc)) return 1;

  std::map<std::string, const json_value*> old_cases, new_cases;
  auto index = [](const json_value& doc,
                  std::map<std::string, const json_value*>* out) {
    const json_value* cases = doc.find("cases");
    if (cases == nullptr) return;
    for (const json_value& c : cases->items()) {
      const json_value* name = c.find("name");
      if (name != nullptr) (*out)[name->as_string()] = &c;
    }
  };
  index(old_doc, &old_cases);
  index(new_doc, &new_cases);

  diff_state st{tolerances, include_wall_clock, 0, 0, {}};
  for (const auto& [name, new_case] : new_cases) {
    const auto it = old_cases.find(name);
    if (it == old_cases.end()) {
      st.notes.push_back(name + " (new case)");
      continue;
    }
    const double old_mean = number_or_nan(it->second->find_path("steps.mean"));
    const double new_mean = number_or_nan(new_case->find_path("steps.mean"));
    std::cout << std::left << std::setw(44) << name << std::right
              << " mean " << fmt(old_mean) << " -> " << fmt(new_mean)
              << "\n";
    diff_values(*it->second, *new_case, name, "", &st);
  }
  for (const auto& [name, old_case] : old_cases) {
    (void)old_case;
    if (new_cases.find(name) == new_cases.end()) {
      st.notes.push_back(name + " (removed case)");
    }
  }
  for (const std::string& note : st.notes) {
    std::cout << "  note: " << note << "\n";
  }
  std::cout << "diff: " << st.compared << " numeric values compared, "
            << st.flagged << " beyond tolerance"
            << (include_wall_clock ? "" : " (wall-clock keys excluded)")
            << "\n";
  return st.flagged == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------------

int cmd_analyze(const std::string& trace_file) {
  std::ifstream in(trace_file, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot read " << trace_file << "\n";
    return 1;
  }
  std::string error;
  std::optional<trace_analysis> analysis = analyze_ndjson(in, &error);
  if (!analysis) {
    std::cerr << "error: " << trace_file << ": " << error << "\n";
    return 1;
  }
  analysis_to_json(*analysis).write(std::cout, 2);
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// regress
// ---------------------------------------------------------------------------

int cmd_regress(const std::vector<std::string>& args) {
  radiocast::campaign::regress_options opts;
  if (args.size() < 2 || !parse_tolerances(args, 2, &opts.tolerances,
                                           nullptr)) {
    return 2;
  }
  json_value baseline, fresh;
  if (!load(args[0], &baseline) || !load(args[1], &fresh)) return 1;
  const radiocast::campaign::regress_report report =
      radiocast::campaign::run_regress(baseline, fresh, opts);
  for (const std::string& problem : report.problems) {
    std::cerr << "regression: " << problem << "\n";
  }
  std::cout << "regress: " << report.comparisons << " comparisons, "
            << report.problems.size() << " regressions ("
            << args[0] << " vs " << args[1] << ")\n";
  return report.ok ? 0 : 1;
}

int usage() {
  std::cerr
      << "usage: radiocast_inspect print    BENCH_x.json\n"
         "       radiocast_inspect validate BENCH_x.json [more...]\n"
         "       radiocast_inspect diff     OLD.json NEW.json"
         " [--tolerance key=pct]... [--include-wall-clock]\n"
         "       radiocast_inspect analyze  TRACE.ndjson\n"
         "       radiocast_inspect regress  BASELINE.json FRESH.json"
         " [--tolerance key=pct]...\n";
  return 2;
}

}  // namespace
}  // namespace radiocast

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return radiocast::usage();
  const std::string& cmd = args.front();
  if (cmd == "print" && args.size() == 2) return radiocast::cmd_print(args[1]);
  if (cmd == "validate" && args.size() >= 2) {
    return radiocast::cmd_validate({args.begin() + 1, args.end()});
  }
  if (cmd == "diff" && args.size() >= 3) {
    const int rc = radiocast::cmd_diff({args.begin() + 1, args.end()});
    return rc == 2 ? radiocast::usage() : rc;
  }
  if (cmd == "analyze" && args.size() == 2) {
    return radiocast::cmd_analyze(args[1]);
  }
  if (cmd == "regress" && args.size() >= 3) {
    const int rc = radiocast::cmd_regress({args.begin() + 1, args.end()});
    return rc == 2 ? radiocast::usage() : rc;
  }
  return radiocast::usage();
}
