// Fixture helpers shared by the static-analysis tests (analyze_test,
// lint_test): run the engine on inline files against the committed layer
// manifest, the one the CLI reads, and count findings per check.
#pragma once

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"

namespace radiocast::analyze_fixture {

using analyze::finding;
using analyze::layer_manifest;
using analyze::report;
using analyze::source_file;

/// The text of the committed tools/analyze/layers.manifest.
inline std::string manifest_text() {
  std::ifstream in(RADIOCAST_LAYER_MANIFEST, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline const layer_manifest& committed_manifest() {
  static const layer_manifest m =
      analyze::parse_manifest(manifest_text(), nullptr);
  return m;
}

inline report run(std::vector<source_file> files) {
  return analyze::analyze_files(files, committed_manifest());
}

inline report run_one(const std::string& path, const std::string& text) {
  return run({{path, text}});
}

/// Unsuppressed findings for one pass.
inline int fired(const report& rep, const std::string& pass) {
  return static_cast<int>(std::count_if(
      rep.findings.begin(), rep.findings.end(),
      [&](const finding& f) { return f.pass == pass && !f.suppressed; }));
}

inline int suppressed(const report& rep, const std::string& pass) {
  return static_cast<int>(std::count_if(
      rep.findings.begin(), rep.findings.end(),
      [&](const finding& f) { return f.pass == pass && f.suppressed; }));
}

}  // namespace radiocast::analyze_fixture
