#include "analyze/analyze.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <utility>

#include "analyze/lexer.h"

namespace radiocast::analyze {

namespace {

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

/// Walks identifier tokens of `line`, invoking fn(token, end_index). The
/// callback may return false to stop the walk.
template <typename Fn>
void for_each_token(const std::string& line, Fn fn) {
  std::size_t i = 0;
  while (i < line.size()) {
    if (!is_ident_char(line[i]) || is_digit(line[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && is_ident_char(line[i])) ++i;
    if (!fn(line.substr(start, i - start), i)) return;
  }
}

/// True when `tok` occurs in `text` as a whole identifier token.
bool contains_token(const std::string& text, const std::string& tok) {
  std::size_t pos = 0;
  while ((pos = text.find(tok, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + tok.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

template <std::size_t N>
bool in_table(const std::array<const char*, N>& table,
              const std::string& tok) {
  return std::find(table.begin(), table.end(), tok) != table.end();
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// The annotation marker: `// radiocast-analyze: allow(<check>) -- why`,
/// and the hot-path region directives.
constexpr char kMarker[] = "radiocast-analyze";

// The clock APIs. R2 bans the CALL outside the timing sites; P2 tracks the
// VALUE inside them (wall-clock tainted at the source).
constexpr std::array<const char*, 9> kClockTokens = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "utc_clock",    "file_clock",   "gettimeofday",
    "clock_gettime", "timespec_get", "ftime"};

bool has_clock_token(const std::string& text) {
  for (const char* t : kClockTokens) {
    if (contains_token(text, t)) return true;
  }
  return false;
}

/// True when `name` is a sanctioned destination for wall-clock-derived
/// values: the wall_ms family of telemetry keys and the timing-plumbing
/// member names of the profiling layer. Everything else (steps, seeds,
/// counters, protocol state) must stay wall-clock-free.
bool is_wall_family(const std::string& name) {
  const std::string n = lower(name);
  if (n == "ms" || n == "ns" || n == "us" || n == "off_over_on") return true;
  auto ends = [&](const char* suf) {
    const std::size_t m = std::string(suf).size();
    return n.size() >= m && n.compare(n.size() - m, m, suf) == 0;
  };
  if (ends("_ms") || ends("_ns") || ends("_us")) return true;
  for (const char* frag :
       {"wall", "elapsed", "duration", "speedup", "per_sec", "latency",
        "timing", "runtime", "time", "clock", "start", "stop", "end",
        "now", "deadline"}) {
    if (n.find(frag) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-file context: scrub, suppressions, finding emission
// ---------------------------------------------------------------------------

/// One parsed `allow(<rule>)` suppression.
struct allow_entry {
  std::string rule;
  std::string justification;
  int annotation_line = 0;  ///< 1-based, where the annotation itself sits
  bool used = false;        ///< set by the rule engine; stale ⇒ finding
};

/// A malformed/unknown annotation, reported back to the rule engine (which
/// turns it into a finding — annotations are part of the contract).
struct annotation_issue {
  int line = 0;
  std::string message;
};

/// All suppressions of one file, keyed by the 1-based line they cover.
struct allow_set {
  std::map<int, std::vector<allow_entry>> by_line;
  std::vector<annotation_issue> issues;
};

struct file_ctx {
  const source_file* file = nullptr;
  scrubbed src;
  allow_set allows;
  std::vector<finding> findings;

  int line_count() const { return static_cast<int>(src.code.size()); }
  const std::string& code(int ln) const {  // 1-based
    return src.code[static_cast<std::size_t>(ln - 1)];
  }
  const std::string& code_str(int ln) const {
    return src.code_strings[static_cast<std::size_t>(ln - 1)];
  }

  std::string raw_line(int line) const {
    const std::string& text = file->text;
    std::size_t begin = 0;
    for (int l = 1; l < line; ++l) {
      const std::size_t nl = text.find('\n', begin);
      if (nl == std::string::npos) return std::string();
      begin = nl + 1;
    }
    const std::size_t end = text.find('\n', begin);
    return trim(text.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin));
  }

  void emit(const std::string& pass, int ln, std::string message) {
    finding f{pass, file->path, ln, std::move(message), raw_line(ln), false,
              ""};
    auto it = allows.by_line.find(ln);
    if (it != allows.by_line.end()) {
      for (allow_entry& a : it->second) {
        if (a.rule == pass) {
          a.used = true;
          f.suppressed = true;
          f.justification = a.justification;
          break;
        }
      }
    }
    findings.push_back(std::move(f));
  }
};

/// Concatenated text of a parenthesized span starting at `open_pos` on
/// 1-based line `ln` (which must hold the '('), spanning at most
/// `max_lines` lines. Returns the text between the parens (exclusive);
/// empty when unbalanced within the window.
std::string paren_span(const std::vector<std::string>& lines, int ln,
                       std::size_t open_pos, int max_lines) {
  std::string out;
  int depth = 0;
  const int line_count = static_cast<int>(lines.size());
  for (int l = ln; l <= line_count && l < ln + max_lines; ++l) {
    const std::string& line = lines[static_cast<std::size_t>(l - 1)];
    std::size_t i = (l == ln) ? open_pos : 0;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '(') {
        ++depth;
        if (depth == 1) continue;  // skip the opening paren itself
      } else if (c == ')') {
        --depth;
        if (depth == 0) return out;
      }
      if (depth >= 1) out.push_back(c);
    }
    out.push_back(' ');
  }
  return std::string();  // unbalanced within the window
}

// ---------------------------------------------------------------------------
// R1–R5: token rules
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 16> kRandomTokens = {
    "rand",          "srand",         "drand48",
    "lrand48",       "random_device", "mt19937",
    "mt19937_64",    "minstd_rand",   "minstd_rand0",
    "ranlux24_base", "ranlux48_base", "ranlux24",
    "ranlux48",      "knuth_b",       "default_random_engine",
    "random_shuffle"};

// Banned only as calls: `time(...)`/`clock(...)`, not `time_point` etc.
constexpr std::array<const char*, 2> kClockCallTokens = {"time", "clock"};

constexpr std::array<const char*, 4> kUnorderedTokens = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// Which token rules apply to a file, decided by its repo-relative path.
struct rule_scope {
  bool no_raw_random = false;
  bool wall_clock = false;
  bool unordered_iter = false;
  bool check_msg = false;
  bool iostream = false;
};

rule_scope scope_for(const std::string& path) {
  rule_scope s;
  const bool in_src = starts_with(path, "src/");
  // R1: everywhere — src/, tests/, tools/, bench/, examples/ alike;
  // util/rng.{h,cpp} is the one sanctioned implementation.
  s.no_raw_random =
      path != "src/util/rng.cpp" && path != "src/util/rng.h";
  // R2: bench/ harness timing and src/exec/ wall-clock accounting are the
  // designated timing sites; anywhere else needs an annotation. In
  // particular src/campaign/ stays IN scope — its one sanctioned read
  // (checkpoint `updated_unix_ms`, display-only) must carry an annotated
  // allow so the justification is auditable in the report.
  s.wall_clock =
      !starts_with(path, "bench/") && !starts_with(path, "src/exec/");
  // R3: library code, tests, and tools — a test that iterates an
  // unordered container can assert on hash order and pass on exactly one
  // libstdc++ build, and a tool can leak hash order into a report diff.
  // bench/ stays out of scope (tables are presentation, and sweeps never
  // route results through hash containers today).
  s.unordered_iter = in_src || starts_with(path, "tests/") ||
                     starts_with(path, "tools/");
  // R5: library code only.
  s.iostream = in_src;
  // R4: the subsystems whose invariants encode paper-level claims.
  s.check_msg =
      starts_with(path, "src/adversary/") || starts_with(path, "src/exec/");
  return s;
}

void run_token_rules(file_ctx& ctx) {
  const rule_scope scope = scope_for(ctx.file->path);
  for (int ln = 1; ln <= ctx.line_count(); ++ln) {
    const std::string& code = ctx.code(ln);
    const std::string stripped = trim(code);
    if (stripped.empty()) continue;
    if (stripped.front() == '#') {
      // Preprocessor line: only the include-hygiene rule applies.
      if (scope.iostream) {
        std::string squeezed;
        for (char c : stripped) {
          if (c != ' ' && c != '\t') squeezed.push_back(c);
        }
        if (starts_with(squeezed, "#include<iostream>")) {
          ctx.emit("iostream", ln,
                   "#include <iostream> in library code — src/ must not own "
                   "streams; report through return values or obs/");
        }
      }
      continue;
    }
    for_each_token(code, [&](const std::string& tok, std::size_t end) {
      if (scope.no_raw_random && in_table(kRandomTokens, tok)) {
        ctx.emit("no-raw-random", ln,
                 "direct use of '" + tok +
                     "' — all randomness must flow through util/rng.h so "
                     "runs replay bit-identically");
      }
      if (scope.wall_clock &&
          (in_table(kClockTokens, tok) ||
           (in_table(kClockCallTokens, tok) &&
            next_nonspace_is_paren(code, end)))) {
        ctx.emit("wall-clock", ln,
                 "wall-clock API '" + tok +
                     "' outside bench/ and src/exec/ — wall time must never "
                     "reach results");
      }
      if (scope.unordered_iter && in_table(kUnorderedTokens, tok)) {
        ctx.emit("unordered-iter", ln,
                 "'std::" + tok +
                     "' in src/, tests/, or tools/ — iteration order can "
                     "leak into results; use a sorted std::vector, or "
                     "annotate why membership-only use is safe");
      }
      if (scope.check_msg && tok == "RC_CHECK" &&
          next_nonspace_is_paren(code, end)) {
        ctx.emit("check-msg", ln,
                 "RC_CHECK without a message — use RC_CHECK_MSG so an "
                 "adversary/exec invariant failure is actionable");
      }
      return true;
    });
  }
}

// ---------------------------------------------------------------------------
// P1: include-graph layering gate
// ---------------------------------------------------------------------------

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Extracts the quoted include target of a preprocessor line, or "".
/// Angle-bracket includes are external by definition and ignored.
std::string include_target(const std::string& code_with_strings) {
  const std::string stripped = trim(code_with_strings);
  if (stripped.empty() || stripped.front() != '#') return "";
  std::string squeezed;
  for (char c : stripped) {
    if (c != ' ' && c != '\t') squeezed.push_back(c);
    if (squeezed.size() > 9) break;  // "#include\"" is 9 chars
  }
  if (!starts_with(squeezed, "#include\"")) return "";
  const std::size_t open = stripped.find('"');
  const std::size_t close = stripped.find('"', open + 1);
  if (close == std::string::npos) return "";
  return stripped.substr(open + 1, close - open - 1);
}

void run_layering(std::vector<file_ctx>& ctxs, const layer_manifest& manifest,
                  report* rep) {
  // File set for include resolution.
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    index[ctxs[i].file->path] = i;
  }

  // Unassigned files: the manifest must cover the scanned tree, or the
  // gate silently stops gating whatever a refactor moves out from under
  // it.
  for (file_ctx& ctx : ctxs) {
    if (manifest.layer_for(ctx.file->path).empty()) {
      ctx.emit("layering", 1,
               "file is not covered by the layer manifest — add a `path` "
               "assignment to tools/analyze/layers.manifest");
    }
  }

  // Parse + resolve edges.
  struct resolved_edge {
    std::size_t to;
    int line;
  };
  std::vector<std::vector<resolved_edge>> adj(ctxs.size());
  for (std::size_t fi = 0; fi < ctxs.size(); ++fi) {
    file_ctx& ctx = ctxs[fi];
    const std::string dir = dir_of(ctx.file->path);
    for (int ln = 1; ln <= ctx.line_count(); ++ln) {
      const std::string inc = include_target(ctx.code_str(ln));
      if (inc.empty()) continue;
      // Resolution mirrors the build's include dirs: the includer's own
      // directory first, then the roots src/ and tools/ export.
      std::size_t to = ctxs.size();
      for (const std::string& cand :
           {dir.empty() ? inc : dir + "/" + inc, "src/" + inc,
            "tools/" + inc, inc}) {
        const auto it = index.find(cand);
        if (it != index.end()) {
          to = it->second;
          break;
        }
      }
      if (to == ctxs.size()) continue;  // external header
      adj[fi].push_back({to, ln});
      rep->edges.push_back({ctx.file->path, ctxs[to].file->path, ln});

      const std::string from_layer = manifest.layer_for(ctx.file->path);
      const std::string to_layer = manifest.layer_for(ctxs[to].file->path);
      if (from_layer.empty() || to_layer.empty()) continue;  // reported above
      const int from_rank = manifest.rank(from_layer);
      const int to_rank = manifest.rank(to_layer);
      if (to_rank > from_rank) {
        ctx.emit("layering", ln,
                 "upward #include: " + ctx.file->path + " (layer '" +
                     from_layer + "') includes " + ctxs[to].file->path +
                     " (layer '" + to_layer +
                     "', higher) — dependencies must point down the layer "
                     "order");
      }
    }
  }

  // Cycle detection (file level): iterative DFS with colors. Any include
  // cycle is a finding regardless of layers — #pragma once merely hides
  // it until the one include order that breaks.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(ctxs.size(), kWhite);
  std::vector<std::size_t> path_stack;
  struct frame {
    std::size_t node;
    std::size_t next = 0;
  };
  for (std::size_t root = 0; root < ctxs.size(); ++root) {
    if (color[root] != kWhite) continue;
    std::vector<frame> stack{{root}};
    color[root] = kGray;
    path_stack.push_back(root);
    while (!stack.empty()) {
      frame& f = stack.back();
      if (f.next < adj[f.node].size()) {
        const resolved_edge e = adj[f.node][f.next++];
        if (color[e.to] == kGray) {
          // Back edge: report the cycle path, attributed to the closing
          // include.
          std::string cycle;
          bool in_cycle = false;
          for (const std::size_t p : path_stack) {
            if (p == e.to) in_cycle = true;
            if (in_cycle) cycle += ctxs[p].file->path + " -> ";
          }
          cycle += ctxs[e.to].file->path;
          ctxs[f.node].emit("layering", e.line,
                            "#include cycle: " + cycle);
        } else if (color[e.to] == kWhite) {
          color[e.to] = kGray;
          path_stack.push_back(e.to);
          stack.push_back({e.to});
        }
      } else {
        color[f.node] = kBlack;
        path_stack.pop_back();
        stack.pop_back();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// P2: determinism taint pass (wall-clock flow + rng provenance)
// ---------------------------------------------------------------------------

/// Scope-tracked set of tainted identifiers: entries die with their brace
/// depth.
class taint_scope {
 public:
  void enter() { ++depth_; }
  void leave() {
    --depth_;
    while (!entries_.empty() && entries_.back().depth > depth_) {
      names_.erase(entries_.back().name);
      entries_.pop_back();
    }
    if (depth_ < 0) depth_ = 0;
  }
  void add(const std::string& name) {
    if (names_.insert(name).second) entries_.push_back({name, depth_});
  }
  bool tainted(const std::string& name) const {
    return names_.count(name) != 0;
  }
  bool any_tainted_token(const std::string& text) const {
    if (names_.empty()) return false;
    bool hit = false;
    for_each_token(text, [&](const std::string& tok, std::size_t) {
      if (names_.count(tok) != 0) {
        hit = true;
        return false;
      }
      return true;
    });
    return hit;
  }

 private:
  struct entry {
    std::string name;
    int depth;
  };
  int depth_ = 0;
  std::vector<entry> entries_;
  std::set<std::string> names_;
};

/// Locates the top-level assignment operator of `line` (ignoring ==, !=,
/// <=, >=, text inside parens/brackets). Returns npos when there is none.
std::size_t find_assignment(const std::string& line) {
  int depth = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
    if (depth != 0 || c != '=') continue;
    const char prev = i > 0 ? line[i - 1] : '\0';
    const char next = i + 1 < line.size() ? line[i + 1] : '\0';
    if (next == '=') {
      ++i;  // '==': skip both
      continue;
    }
    if (prev == '=' || prev == '!' || prev == '<' || prev == '>') continue;
    return i;  // plain or compound assignment ('+=', '-=', …)
  }
  return std::string::npos;
}

/// Last identifier of the (bracket-stripped) assignment target, plus
/// whether it is a member access (`x.member` / `x->member`).
struct lhs_info {
  std::string name;
  bool is_member = false;
};

lhs_info parse_lhs(std::string lhs) {
  lhs_info out;
  lhs = trim(lhs);
  // Compound operators leave their op char on the LHS ("acc +"): drop it.
  while (!lhs.empty() && !is_ident_char(lhs.back()) && lhs.back() != ']') {
    lhs.pop_back();
    lhs = trim(lhs);
  }
  // Strip trailing index groups: `arrivals_[idx(v)]` targets `arrivals_`.
  while (!lhs.empty() && lhs.back() == ']') {
    int depth = 0;
    std::size_t i = lhs.size();
    while (i > 0) {
      --i;
      if (lhs[i] == ']') ++depth;
      if (lhs[i] == '[') {
        --depth;
        if (depth == 0) break;
      }
    }
    lhs = trim(lhs.substr(0, i));
  }
  if (lhs.empty() || !is_ident_char(lhs.back())) return out;
  std::size_t start = lhs.size();
  while (start > 0 && is_ident_char(lhs[start - 1])) --start;
  out.name = lhs.substr(start);
  if (start >= 1 && lhs[start - 1] == '.') out.is_member = true;
  if (start >= 2 && lhs[start - 2] == '-' && lhs[start - 1] == '>') {
    out.is_member = true;
  }
  return out;
}

/// True when the rng-construction argument text derives from a seeded
/// stream: a literal constant, a *seed*/*salt*/mix_seed/splitmix64
/// expression, a split() call, or another generator.
bool seeded_expression(const std::string& expr) {
  bool ok = false;
  for_each_token(expr, [&](const std::string& tok, std::size_t) {
    const std::string t = lower(tok);
    if (t.find("seed") != std::string::npos ||
        t.find("salt") != std::string::npos ||
        t.find("gen") != std::string::npos ||
        t.find("rng") != std::string::npos || t == "split" ||
        t == "splitmix64" || t == "mix_seed") {
      ok = true;
      return false;
    }
    return true;
  });
  if (ok) return true;
  // A standalone numeric literal (decimal or hex) counts as a fixed seed.
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (is_digit(expr[i]) && (i == 0 || !is_ident_char(expr[i - 1]))) {
      return true;
    }
  }
  return false;
}

void run_taint(file_ctx& ctx) {
  const std::string& path = ctx.file->path;
  const bool check_rng =
      path != "src/util/rng.h" && path != "src/util/rng.cpp";
  taint_scope scope;
  constexpr std::array<const char*, 4> kBranchKeywords = {"if", "while",
                                                          "for", "switch"};
  constexpr std::array<const char*, 2> kSinkCalls = {"set", "annotate"};

  for (int ln = 1; ln <= ctx.line_count(); ++ln) {
    const std::string& code = ctx.code(ln);
    const std::string stripped = trim(code);
    if (stripped.empty() || stripped.front() == '#') {
      // Still track braces on continued macro bodies? Preprocessor lines
      // carry no scopes we track.
      continue;
    }

    // 1) Control flow on tainted values. The condition span may continue
    //    over a few lines; ternaries are deliberately NOT flagged (pure
    //    data selection, e.g. `ms > 0 ? a / ms : 1.0` in wall-family
    //    ratios).
    for_each_token(code, [&](const std::string& tok, std::size_t end) {
      for (const char* kw : kBranchKeywords) {
        if (tok == kw && next_nonspace_is_paren(code, end)) {
          const std::size_t open = code.find('(', end);
          const std::string cond = paren_span(ctx.src.code, ln, open, 6);
          if (scope.any_tainted_token(cond)) {
            ctx.emit("taint", ln,
                     "wall-clock-derived value in a `" + std::string(kw) +
                         "` condition — timing must never steer control "
                         "flow that can reach results");
          }
        }
      }
      return true;
    });

    // 2) Telemetry sinks: `.set("key", …)` / `.annotate("key", …)` with a
    //    tainted argument must target a wall-clock-family key.
    for_each_token(code, [&](const std::string& tok, std::size_t end) {
      bool is_sink = false;
      for (const char* s : kSinkCalls) is_sink = is_sink || tok == s;
      if (!is_sink || !next_nonspace_is_paren(code, end)) return true;
      const std::size_t start = end - tok.size();
      const bool is_method =
          (start >= 1 && code[start - 1] == '.') ||
          (start >= 2 && code[start - 2] == '-' && code[start - 1] == '>');
      if (!is_method) return true;
      const std::size_t open = code.find('(', end);
      const std::string args = paren_span(ctx.src.code, ln, open, 8);
      if (args.empty() || !scope.any_tainted_token(args)) return true;
      // Key: the leading string literal, read from the strings-kept view.
      const std::string args_str =
          paren_span(ctx.src.code_strings, ln, open, 8);
      std::string key;
      const std::string targs = trim(args_str);
      if (!targs.empty() && targs.front() == '"') {
        const std::size_t close = targs.find('"', 1);
        if (close != std::string::npos) key = targs.substr(1, close - 1);
      }
      if (key.empty() || !is_wall_family(key)) {
        ctx.emit("taint", ln,
                 "wall-clock-derived value sunk into telemetry key '" +
                     (key.empty() ? std::string("<non-literal>") : key) +
                     "' — timing may only flow into wall_ms-family "
                     "outputs");
      }
      return true;
    });

    // 3) Assignments: propagate taint; flag tainted flows into
    //    non-wall-family members.
    const std::size_t eq = find_assignment(code);
    if (eq != std::string::npos) {
      // RHS runs to the first depth-0 ';' (spanning a bounded number of
      // continuation lines).
      std::string rhs = code.substr(eq + 1);
      {
        int depth = 0;
        bool done = false;
        std::string acc;
        for (int l = ln; l <= ctx.line_count() && l < ln + 10 && !done;
             ++l) {
          const std::string& cl = ctx.code(l);
          std::size_t i = (l == ln) ? eq + 1 : 0;
          for (; i < cl.size(); ++i) {
            const char c = cl[i];
            if (c == '(' || c == '[') ++depth;
            if (c == ')' || c == ']') --depth;
            if (c == ';' && depth <= 0) {
              done = true;
              break;
            }
            acc.push_back(c);
          }
          acc.push_back(' ');
        }
        if (done) rhs = acc;
      }
      const bool rhs_tainted =
          has_clock_token(rhs) || scope.any_tainted_token(rhs);
      if (rhs_tainted) {
        const lhs_info lhs = parse_lhs(code.substr(0, eq));
        if (!lhs.name.empty()) {
          if (lhs.is_member && !is_wall_family(lhs.name)) {
            ctx.emit("taint", ln,
                     "wall-clock-derived value assigned to member '" +
                         lhs.name +
                         "' — timing may only flow into wall_ms-family "
                         "outputs");
          } else if (!lhs.is_member) {
            scope.add(lhs.name);
          }
        }
      }
    }

    // 4) rng provenance: every construction must derive from a seeded
    //    stream.
    if (check_rng) {
      for_each_token(code, [&](const std::string& tok, std::size_t end) {
        if (tok != "rng") return true;
        // Skip qualified mentions that are not constructions: `rng>`,
        // `rng&`, `rng*`, `rng::`.
        std::size_t i = end;
        while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
        if (i >= code.size()) return true;
        if (code[i] == '(') {
          // Temporary: `rng(expr)` — also matches `= rng(expr)`.
          const std::string args = paren_span(ctx.src.code, ln, i, 4);
          // `rng()` default temporary is never seeded.
          const bool bad = trim(args).empty() || !seeded_expression(args);
          const bool tainted = scope.any_tainted_token(args);
          if (bad || tainted) {
            ctx.emit("taint", ln,
                     tainted
                         ? "rng seeded from a wall-clock-derived value — "
                           "seeds must be deterministic"
                         : "rng construction does not derive from a seeded "
                           "stream (pass a literal, a *seed*/*salt* "
                           "expression, mix_seed/splitmix64, or split())");
          }
          return true;
        }
        if (!is_ident_char(code[i])) return true;  // rng>, rng&, rng::…
        // `rng NAME …`
        std::size_t ns = i;
        while (i < code.size() && is_ident_char(code[i])) ++i;
        const std::string name = code.substr(ns, i - ns);
        while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
        const char after = i < code.size() ? code[i] : ';';
        if (after == ',' || after == ')') return true;  // parameter decl
        if (after == ';') {
          // Default construction. Members (trailing '_', project
          // convention) are seeded later by their owner (begin_run).
          if (!name.empty() && name.back() != '_') {
            ctx.emit("taint", ln,
                     "default-constructed rng '" + name +
                         "' — every generator must be explicitly seeded "
                         "(util/rng.h)");
          }
          return true;
        }
        if (after == '(' || after == '{' || after == '=') {
          std::string expr;
          if (after == '=') {
            expr = code.substr(i + 1);
          } else if (after == '(') {
            expr = paren_span(ctx.src.code, ln, i, 4);
          } else {
            // Brace init `rng name{expr}`: take the rest of the line.
            expr = code.substr(i + 1);
          }
          const bool tainted = scope.any_tainted_token(expr);
          if (tainted || !seeded_expression(expr)) {
            ctx.emit("taint", ln,
                     tainted
                         ? "rng '" + name +
                               "' seeded from a wall-clock-derived value — "
                               "seeds must be deterministic"
                         : "rng '" + name +
                               "' does not derive from a seeded stream "
                               "(pass a literal, a *seed*/*salt* "
                               "expression, mix_seed/splitmix64, or "
                               "split())");
          }
        }
        return true;
      });
    }

    // 5) Scope tracking last, so a same-line open brace scopes the NEXT
    //    lines' declarations, and close braces expire this line's scope.
    for (const char c : code) {
      if (c == '{') scope.enter();
      if (c == '}') scope.leave();
    }
  }
}

// ---------------------------------------------------------------------------
// P3: engine/protocol contract checker
// ---------------------------------------------------------------------------

/// 1-based line of the matching close brace for a block whose opening '{'
/// sits at (`ln`, `pos`); 0 when unbalanced.
int match_brace(const file_ctx& ctx, int ln, std::size_t pos) {
  int depth = 0;
  for (int l = ln; l <= ctx.line_count(); ++l) {
    const std::string& line = ctx.code(l);
    for (std::size_t i = (l == ln) ? pos : 0; i < line.size(); ++i) {
      if (line[i] == '{') ++depth;
      if (line[i] == '}') {
        --depth;
        if (depth == 0) return l;
      }
    }
  }
  return 0;
}

/// Member types that sink std::is_trivially_copyable (owning containers,
/// handles). Token match inside `struct state` blocks.
constexpr std::array<const char*, 13> kNonTrivialTokens = {
    "string",     "vector",     "deque",    "list",       "map",
    "multimap",   "multiset",   "function", "unique_ptr", "shared_ptr",
    "weak_ptr",   "unordered_map", "unordered_set"};

void run_contract(file_ctx& ctx) {
  // Trigger 1: a soa_runner() DEFINITION whose body returns an entry
  // requires SoA traits in the same translation unit.
  bool returns_entry = false;
  bool has_traits = false;
  for (int ln = 1; ln <= ctx.line_count(); ++ln) {
    const std::string& code = ctx.code(ln);
    if (contains_token(code, "soa_runner")) {
      const std::size_t tok = code.find("soa_runner");
      const std::size_t open = code.find('(', tok);
      if (open != std::string::npos) {
        // A definition has '{' after the ')' (possibly via `const {`).
        const std::size_t close = code.find(')', open);
        if (close != std::string::npos &&
            code.find('{', close) != std::string::npos) {
          const int end = match_brace(ctx, ln, code.find('{', close));
          for (int l = ln; l <= (end == 0 ? ln : end); ++l) {
            if (ctx.code(l).find("return &") != std::string::npos) {
              returns_entry = true;
            }
          }
        }
      }
    }
    if (code.find("_soa_traits") != std::string::npos &&
        contains_token(code, "struct")) {
      has_traits = true;
    }
  }
  if (returns_entry && !has_traits) {
    ctx.emit("contract", 1,
             "soa_runner() returns an SoA entry but this file declares no "
             "*_soa_traits struct to check against the engine contract");
  }

  // Trigger 2: validate every *_soa_traits struct.
  for (int ln = 1; ln <= ctx.line_count(); ++ln) {
    const std::string& code = ctx.code(ln);
    if (!contains_token(code, "struct")) continue;
    const std::size_t name_pos = code.find("_soa_traits");
    if (name_pos == std::string::npos) continue;
    const std::size_t open = code.find('{', name_pos);
    if (open == std::string::npos) continue;
    const int end = match_brace(ctx, ln, open);
    if (end == 0) continue;

    // struct state { … }: required, and its members must stay trivially
    // copyable (S1's static_asserts are the compile-time floor; this is
    // the pre-compile tripwire).
    int state_ln = 0;
    for (int l = ln + 1; l < end; ++l) {
      const std::string& cl = ctx.code(l);
      if (contains_token(cl, "struct") && contains_token(cl, "state")) {
        state_ln = l;
        break;
      }
    }
    if (state_ln == 0) {
      ctx.emit("contract", ln,
               "SoA traits without a `struct state` — the engine stores "
               "per-node protocol state as a contiguous POD array");
    } else {
      const std::size_t sopen = ctx.code(state_ln).find('{');
      const int send =
          sopen == std::string::npos ? 0 : match_brace(ctx, state_ln, sopen);
      for (int l = state_ln; send != 0 && l <= send; ++l) {
        for (const char* bad : kNonTrivialTokens) {
          if (contains_token(ctx.code(l), bad)) {
            ctx.emit("contract", l,
                     "non-trivially-copyable member type '" +
                         std::string(bad) +
                         "' in Traits::state — SoA state must be POD "
                         "(shared configuration belongs on the traits "
                         "object, not in per-node state)");
          }
        }
      }
    }

    // Required hooks. on_restart is mandatory: every SoA protocol must be
    // restart-tolerant (fault/recovery.h amnesia reboots call it).
    for (const char* hook : {"init", "on_step", "on_receive", "informed",
                             "halted", "on_restart"}) {
      bool found = false;
      for (int l = ln + 1; l < end && !found; ++l) {
        const std::string& cl = ctx.code(l);
        if (contains_token(cl, hook)) {
          const std::size_t p = cl.find(hook);
          if (next_nonspace_is_paren(cl, p + std::string(hook).size())) {
            found = true;
          }
        }
      }
      if (!found) {
        ctx.emit("contract", ln,
                 "SoA traits missing required hook '" + std::string(hook) +
                     "' (sim/soa_engine.h traits contract)");
      }
    }

    // begin_step, when present, must take exactly std::int64_t — the
    // engine detects it via `begin_step(std::int64_t{})`, and a narrower
    // parameter (int) would still be callable but silently truncate step
    // counts past 2^31.
    for (int l = ln + 1; l < end; ++l) {
      const std::string& cl = ctx.code(l);
      if (!contains_token(cl, "begin_step")) continue;
      const std::size_t p = cl.find("begin_step");
      const std::size_t bopen = cl.find('(', p);
      if (bopen == std::string::npos) continue;
      const std::string params = paren_span(ctx.src.code, l, bopen, 3);
      std::string squeezed;
      for (char c : params) {
        if (c != ' ' && c != '\t') squeezed.push_back(c);
      }
      const bool one_param = squeezed.find(',') == std::string::npos;
      const bool exact = starts_with(squeezed, "std::int64_t") ||
                         starts_with(squeezed, "conststd::int64_t") ||
                         starts_with(squeezed, "int64_t");
      if (!one_param || !exact) {
        ctx.emit("contract", l,
                 "begin_step hook must take exactly one std::int64_t (the "
                 "step number) — detected signature `begin_step(" +
                     trim(params) +
                     ")` would be callable but lossy or mismatched");
      }
    }

    // next_poll, when present, must be exactly
    // `std::int64_t next_poll(const state&, std::int64_t) const`: the
    // calendar stores and compares 64-bit steps, so a narrower return or
    // parameter type would truncate wakes past 2^31. (The engine's
    // static_assert is the compile-time floor; this is the pre-compile
    // tripwire, like the begin_step check above.)
    for (int l = ln + 1; l < end; ++l) {
      const std::string& cl = ctx.code(l);
      if (!contains_token(cl, "next_poll")) continue;
      const std::size_t p = cl.find("next_poll");
      const std::size_t nopen = cl.find('(', p);
      if (nopen == std::string::npos) continue;
      // Declarations only: the token before the name is a type.
      const std::string before = trim(cl.substr(0, p));
      const std::size_t word = before.find_last_of(" \t");
      const std::string ret =
          word == std::string::npos ? before : before.substr(word + 1);
      if (ret.empty() || ret == "return" || !is_ident_char(ret.back())) {
        continue;
      }
      const std::string params = paren_span(ctx.src.code, l, nopen, 3);
      std::string squeezed;
      for (char c : params) {
        if (c != ' ' && c != '\t') squeezed.push_back(c);
      }
      const std::size_t comma = squeezed.find(',');
      const std::string second = comma == std::string::npos
                                     ? std::string()
                                     : squeezed.substr(comma + 1);
      // The qualifier after the parameter list (same line).
      std::size_t close = nopen;
      for (int depth = 0; close < cl.size(); ++close) {
        if (cl[close] == '(') ++depth;
        if (cl[close] == ')' && --depth == 0) break;
      }
      const bool is_const = close < cl.size() &&
                            starts_with(trim(cl.substr(close + 1)), "const");
      const bool exact =
          (ret == "std::int64_t" || ret == "int64_t") &&
          starts_with(squeezed, "conststate&") &&
          squeezed.find(',', comma + 1) == std::string::npos &&
          (starts_with(second, "std::int64_t") ||
           starts_with(second, "int64_t")) &&
          is_const;
      if (!exact) {
        ctx.emit("contract", l,
                 "next_poll hook must be exactly `std::int64_t next_poll("
                 "const state&, std::int64_t) const` — detected `" +
                     ret + " next_poll(" + trim(params) +
                     ")` would truncate or mismatch calendar steps");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// P4: hot-path hygiene pass
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 16> kHotBannedIdents = {
    "malloc",     "calloc",      "realloc",     "make_unique",
    "make_shared", "to_string",  "cout",        "cerr",
    "clog",       "printf",      "fprintf",     "sprintf",
    "snprintf",   "endl",        "stringstream", "ostringstream"};

// String-keyed registry lookups build a key and walk a map per call; step
// code reaches instruments through a resolved reference or a metric_key.
constexpr std::array<const char*, 4> kHotBannedLookups = {
    "get_counter", "get_gauge", "get_histogram", "get_series"};

void run_hot_path(file_ctx& ctx) {
  int region_begin = 0;  // 0 = outside; otherwise the begin line
  bool pending_rc = false;
  int rc_depth = 0;

  for (int ln = 1; ln <= ctx.line_count(); ++ln) {
    // Region markers live in comments: `// radiocast-analyze:
    // hot-path-begin` / `hot-path-end`.
    const std::string comment =
        trim(ctx.src.comment[static_cast<std::size_t>(ln - 1)]);
    if (starts_with(comment, kMarker)) {
      std::string rest = trim(comment.substr(sizeof(kMarker) - 1));
      if (!rest.empty() && rest.front() == ':') rest = trim(rest.substr(1));
      if (starts_with(rest, "hot-path-begin")) {
        if (region_begin != 0) {
          ctx.emit("hot-path", ln,
                   "nested hot-path-begin (region already open since line " +
                       std::to_string(region_begin) + ")");
        } else {
          region_begin = ln;
          pending_rc = false;
          rc_depth = 0;
        }
        continue;
      }
      if (starts_with(rest, "hot-path-end")) {
        if (region_begin == 0) {
          ctx.emit("hot-path", ln, "hot-path-end without a matching begin");
        }
        region_begin = 0;
        continue;
      }
    }
    if (region_begin == 0) continue;

    // Char-level walk with RC_* macro-argument skipping: the assertion
    // failure path is cold by definition, so RC_CHECK_MSG's std::to_string
    // message building is exempt.
    const std::string& code = ctx.code(ln);
    std::size_t i = 0;
    while (i < code.size()) {
      const char c = code[i];
      if (rc_depth > 0) {
        if (c == '(') ++rc_depth;
        if (c == ')') --rc_depth;
        ++i;
        continue;
      }
      if (pending_rc) {
        if (c == '(') {
          rc_depth = 1;
          pending_rc = false;
          ++i;
          continue;
        }
        if (c != ' ' && c != '\t') pending_rc = false;
      }
      if (!is_ident_char(c) || is_digit(c)) {
        ++i;
        continue;
      }
      const std::size_t start = i;
      while (i < code.size() && is_ident_char(code[i])) ++i;
      const std::string tok = code.substr(start, i - start);
      if (starts_with(tok, "RC_")) {
        pending_rc = true;
        continue;
      }
      auto ban = [&](const std::string& what) {
        ctx.emit("hot-path", ln,
                 what + " inside a hot-path region — the step loop must "
                        "not allocate, format, throw, or touch streams "
                        "(docs/PERFORMANCE.md)");
      };
      if (tok == "new") {
        ban("heap allocation ('new')");
      } else if (tok == "throw") {
        ban("'throw'");
      } else if (tok == "string") {
        ban("std::string");
      } else if (in_table(kHotBannedLookups, tok)) {
        ctx.emit("hot-path", ln,
                 "string-keyed metric lookup '" + tok +
                     "' inside a hot-path region — resolve it once at "
                     "setup, or declare an obs::metric_key and use "
                     "counter_at/gauge_at/histogram_at "
                     "(docs/OBSERVABILITY.md)");
      } else if (in_table(kHotBannedIdents, tok)) {
        ban("'" + tok + "'");
      }
    }
  }
  if (region_begin != 0) {
    ctx.emit("hot-path", region_begin,
             "hot-path-begin without a matching hot-path-end before end of "
             "file");
  }
}

bool is_region_directive(const std::string& rest) {
  return starts_with(rest, "hot-path-begin") ||
         starts_with(rest, "hot-path-end");
}

/// Parses every `radiocast-analyze: allow(<check>[, <check>...]) --
/// <justification>` annotation in `src`. An annotation must OPEN its
/// comment; prose that merely mentions the marker mid-comment is ignored.
/// A trailing annotation covers its own line; an annotation in a pure
/// comment line covers the next line that has code. The hot-path region
/// directives share the marker and are left to run_hot_path.
allow_set collect_allows(const scrubbed& src) {
  const std::string marker = kMarker;
  allow_set out;
  const auto line_count = static_cast<int>(src.code.size());
  for (int ln = 1; ln <= line_count; ++ln) {
    // An annotation must open its comment (`// <marker>: ...`); prose that
    // merely mentions the marker mid-comment is not one.
    const std::string comment =
        trim(src.comment[static_cast<std::size_t>(ln - 1)]);
    if (!starts_with(comment, marker.c_str())) continue;
    // The marker must be the whole first word, not a prefix of a longer
    // one ("radiocast-analyze" must not claim "radiocast-analyzer").
    if (comment.size() > marker.size() &&
        is_ident_char(comment[marker.size()])) {
      continue;
    }
    std::string rest = trim(comment.substr(marker.size()));
    if (!rest.empty() && rest.front() == ':') rest = trim(rest.substr(1));
    if (is_region_directive(rest)) continue;  // run_hot_path handles it
    auto bad = [&](const std::string& why) {
      out.issues.push_back({ln, why});
    };
    if (!starts_with(rest, "allow(")) {
      bad("malformed annotation; expected `" + marker +
          ": allow(<rule>) -- <justification>`");
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string::npos) {
      bad("malformed annotation; unterminated allow(");
      continue;
    }
    std::vector<std::string> ids;
    std::string id_list = rest.substr(6, close - 6);
    std::size_t pos = 0;
    while (pos <= id_list.size()) {
      const std::size_t comma = id_list.find(',', pos);
      ids.push_back(trim(id_list.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    std::string tail = trim(rest.substr(close + 1));
    std::string justification;
    if (starts_with(tail, "--")) justification = trim(tail.substr(2));
    if (justification.empty()) {
      bad("suppression needs a justification: "
          "`allow(<rule>) -- <why this cannot affect results>`");
      continue;
    }
    bool ok = true;
    for (const std::string& id : ids) {
      if (!is_known_pass(id)) {
        bad("unknown rule '" + id + "' in allow()");
        ok = false;
      }
    }
    if (!ok) continue;
    // A trailing annotation covers its own line; an annotation in a pure
    // comment covers the next line that has code (the justification may
    // continue over several comment lines).
    const bool pure_comment =
        trim(src.code[static_cast<std::size_t>(ln - 1)]).empty();
    int target = ln;
    if (pure_comment) {
      target = ln + 1;
      while (target <= line_count &&
             trim(src.code[static_cast<std::size_t>(target - 1)]).empty()) {
        ++target;
      }
    }
    for (const std::string& id : ids) {
      out.by_line[target].push_back({id, justification, ln, false});
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

int layer_manifest::rank(const std::string& layer) const {
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == layer) return static_cast<int>(i);
  }
  return -1;
}

std::string layer_manifest::layer_for(const std::string& path) const {
  std::size_t best_len = 0;
  std::string best;
  for (const assignment& a : assignments) {
    if (a.prefix.size() >= best_len && starts_with(path, a.prefix.c_str())) {
      best_len = a.prefix.size();
      best = a.layer;
    }
  }
  return best;
}

layer_manifest parse_manifest(const std::string& text,
                              std::vector<std::string>* errors) {
  layer_manifest m;
  std::size_t pos = 0;
  int ln = 0;
  auto err = [&](const std::string& what) {
    if (errors != nullptr) {
      errors->push_back("layers.manifest:" + std::to_string(ln) + ": " +
                        what);
    }
  };
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string line = trim(text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos));
    ++ln;
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = trim(line.substr(0, hash));
    if (line.empty()) continue;
    std::vector<std::string> words;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      const std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
      if (i > start) words.push_back(line.substr(start, i - start));
    }
    if (words[0] == "layer" && words.size() == 2) {
      if (m.rank(words[1]) != -1) {
        err("duplicate layer '" + words[1] + "'");
      } else {
        m.order.push_back(words[1]);
      }
    } else if (words[0] == "path" && words.size() == 3) {
      if (m.rank(words[2]) == -1) {
        err("path assignment names undeclared layer '" + words[2] + "'");
      } else {
        m.assignments.push_back({words[1], words[2]});
      }
    } else {
      err("malformed line (expected `layer <name>` or `path <prefix> "
          "<name>`)");
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Pass table, driver, report
// ---------------------------------------------------------------------------

const std::vector<pass_info>& passes() {
  static const std::vector<pass_info> kPasses = {
      {"no-raw-random",
       "all randomness flows through util/rng.h; std::rand, "
       "std::random_device, and direct std::mt19937 are banned"},
      {"wall-clock",
       "no wall-clock APIs outside the designated timing sites in bench/ "
       "and src/exec/; src/campaign/ checkpoint timestamps are permitted "
       "only through an annotated allow"},
      {"unordered-iter",
       "no std::unordered_map/set use in src/, tests/, or tools/ without "
       "an annotated justification; iteration order can leak into results"},
      {"check-msg",
       "RC_CHECK in src/adversary/ and src/exec/ must carry a message "
       "(use RC_CHECK_MSG)"},
      {"iostream", "no <iostream> in src/ library code"},
      {"layering",
       "the #include graph respects the declared layer manifest: no upward "
       "edges, no include cycles"},
      {"taint",
       "wall-clock reads only flow into wall_ms-family outputs, and every "
       "rng construction derives from a seeded stream (util/rng.h)"},
      {"contract",
       "protocols exposing soa_runner() ship SoA traits with POD state, "
       "the full hook set including on_restart, and exact "
       "begin_step(std::int64_t) and std::int64_t next_poll(const state&, "
       "std::int64_t) const signatures; a src/core file defining traits "
       "defines no protocol_node subclass"},
      {"hot-path",
       "no heap allocation, std::string, throw, iostream, or string-keyed "
       "metric lookup (get_counter/get_gauge/get_histogram/get_series) "
       "inside annotated step-loop regions (RC_* assertion arguments "
       "exempt)"},
  };
  return kPasses;
}

bool is_known_pass(const std::string& id) {
  for (const pass_info& p : passes()) {
    if (id == p.id) return true;
  }
  return false;
}

int report::unsuppressed_count() const {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [](const finding& f) { return !f.suppressed; }));
}

int report::suppressed_count() const {
  return static_cast<int>(findings.size()) - unsuppressed_count();
}

report analyze_files(const std::vector<source_file>& files,
                     const layer_manifest& manifest) {
  report rep;
  rep.manifest = manifest;
  rep.files_scanned = static_cast<int>(files.size());

  std::vector<file_ctx> ctxs(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    ctxs[i].file = &files[i];
    ctxs[i].src = scrub(files[i].text);
    ctxs[i].allows = collect_allows(ctxs[i].src);
    rep.nodes.push_back(files[i].path);
  }

  run_layering(ctxs, manifest, &rep);
  for (file_ctx& ctx : ctxs) {
    run_token_rules(ctx);
    run_taint(ctx);
    run_contract(ctx);
    run_hot_path(ctx);

    // Annotation hygiene: malformed annotations and stale allows are
    // findings — annotations are part of the contract, not free comments.
    for (const annotation_issue& issue : ctx.allows.issues) {
      ctx.findings.push_back({"analyze-annotation", ctx.file->path,
                              issue.line, issue.message,
                              ctx.raw_line(issue.line), false, ""});
    }
    for (const auto& [target, entries] : ctx.allows.by_line) {
      (void)target;
      for (const allow_entry& a : entries) {
        if (!a.used) {
          ctx.findings.push_back(
              {"analyze-annotation", ctx.file->path, a.annotation_line,
               "unused suppression: no '" + a.rule +
                   "' finding on the annotated line",
               ctx.raw_line(a.annotation_line), false, ""});
        }
      }
    }

    std::stable_sort(ctx.findings.begin(), ctx.findings.end(),
                     [](const finding& a, const finding& b) {
                       return a.line < b.line;
                     });
    rep.findings.insert(rep.findings.end(),
                        std::make_move_iterator(ctx.findings.begin()),
                        std::make_move_iterator(ctx.findings.end()));
  }

  std::sort(rep.edges.begin(), rep.edges.end(),
            [](const include_edge& a, const include_edge& b) {
              return std::tie(a.from, a.to) < std::tie(b.from, b.to);
            });
  return rep;
}

obs::json_value report_to_json(const report& rep) {
  using obs::json_value;
  json_value doc = json_value::object();
  doc.set("schema", kSchema);
  doc.set("tool", "radiocast_analyze");
  doc.set("files_scanned", rep.files_scanned);

  json_value pass_table = json_value::array();
  for (const pass_info& p : passes()) {
    json_value entry = json_value::object();
    entry.set("id", p.id);
    entry.set("summary", p.summary);
    pass_table.push_back(std::move(entry));
  }
  doc.set("passes", std::move(pass_table));

  json_value layers = json_value::array();
  for (const std::string& l : rep.manifest.order) layers.push_back(l);
  doc.set("layers", std::move(layers));

  json_value graph = json_value::object();
  json_value nodes = json_value::array();
  for (const std::string& n : rep.nodes) {
    json_value node = json_value::object();
    node.set("path", n);
    node.set("layer", rep.manifest.layer_for(n));
    nodes.push_back(std::move(node));
  }
  graph.set("nodes", std::move(nodes));
  json_value edges = json_value::array();
  for (const include_edge& e : rep.edges) {
    json_value edge = json_value::object();
    edge.set("from", e.from);
    edge.set("to", e.to);
    edges.push_back(std::move(edge));
  }
  graph.set("edges", std::move(edges));
  doc.set("include_graph", std::move(graph));

  json_value open = json_value::array();
  json_value suppressed = json_value::array();
  // Every check appears in by_pass, so a zero says the check ran clean.
  std::map<std::string, int> by_pass;
  for (const pass_info& p : passes()) by_pass[p.id] = 0;
  for (const finding& f : rep.findings) {
    json_value entry = json_value::object();
    entry.set("pass", f.pass);
    entry.set("path", f.path);
    entry.set("line", f.line);
    entry.set("message", f.message);
    entry.set("snippet", f.snippet);
    if (f.suppressed) {
      entry.set("justification", f.justification);
      suppressed.push_back(std::move(entry));
    } else {
      ++by_pass[f.pass];
      open.push_back(std::move(entry));
    }
  }
  doc.set("findings", std::move(open));
  doc.set("suppressed", std::move(suppressed));

  json_value summary = json_value::object();
  summary.set("findings", rep.unsuppressed_count());
  summary.set("suppressed", rep.suppressed_count());
  summary.set("clean", rep.unsuppressed_count() == 0);
  json_value per_pass = json_value::object();
  for (const auto& [pass, count] : by_pass) per_pass.set(pass, count);
  summary.set("by_pass", std::move(per_pass));
  doc.set("summary", std::move(summary));
  return doc;
}

}  // namespace radiocast::analyze
