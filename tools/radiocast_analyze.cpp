// radiocast_analyze — the project's static-analysis CLI (checks in
// tools/analyze/).
//
//   radiocast_analyze [--root DIR] [--json FILE] [--passes] [PATH...]
//
// Scans PATH... (default: src bench tests tools examples, relative to
// --root, default ".") for .h/.cpp files and runs the nine checks — the
// token rules no-raw-random, wall-clock, unordered-iter, check-msg and
// iostream, and the passes layering, taint, contract and hot-path
// (docs/STATIC_ANALYSIS.md). The layer manifest is
// <root>/tools/analyze/layers.manifest. Optionally writes a
// radiocast.analysis.v1 JSON report that `radiocast_inspect validate`
// checks.
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.
//
// scripts/ci.sh runs this as stage 0, before any build stage.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"

namespace radiocast {
namespace {

namespace fs = std::filesystem;

bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

int usage() {
  std::cerr << "usage: radiocast_analyze [--root DIR] [--json FILE]"
               " [--passes] [PATH...]\n"
               "  PATH... default: src bench tests tools examples\n";
  return 2;
}

int run(const std::vector<std::string>& args) {
  std::string root = ".";
  std::string json_out;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--root" && i + 1 < args.size()) {
      root = args[++i];
    } else if (args[i] == "--json" && i + 1 < args.size()) {
      json_out = args[++i];
    } else if (args[i] == "--passes") {
      for (const analyze::pass_info& p : analyze::passes()) {
        std::cout << p.id << "\n    " << p.summary << "\n";
      }
      return 0;
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage();
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.empty()) paths = {"src", "bench", "tests", "tools", "examples"};

  const fs::path root_path(root);

  analyze::layer_manifest manifest;
  {
    constexpr char kManifest[] = "tools/analyze/layers.manifest";
    std::string text;
    if (!read_file(root_path / kManifest, &text)) {
      std::cerr << "radiocast_analyze: error: cannot read layer manifest "
                << (root_path / kManifest).string() << "\n";
      return 2;
    }
    std::vector<std::string> errors;
    manifest = analyze::parse_manifest(text, &errors);
    for (const std::string& e : errors) {
      std::cerr << "radiocast_analyze: " << kManifest << ": " << e << "\n";
    }
    if (!errors.empty()) return 2;
  }

  // Collect files, sorted by repo-relative path so diagnostics and the
  // JSON report are deterministic across filesystems.
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    const fs::path full = root_path / p;
    std::error_code ec;
    if (fs::is_regular_file(full, ec)) {
      if (analyzable(full)) files.push_back(p);
      continue;
    }
    if (!fs::is_directory(full, ec)) {
      std::cerr << "radiocast_analyze: error: no such file or directory: "
                << full.string() << "\n";
      return 2;
    }
    for (fs::recursive_directory_iterator it(full, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (it->is_regular_file() && analyzable(it->path())) {
        files.push_back(
            it->path().lexically_relative(root_path).generic_string());
      }
    }
    if (ec) {
      std::cerr << "radiocast_analyze: error walking " << full.string()
                << ": " << ec.message() << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<analyze::source_file> sources;
  sources.reserve(files.size());
  for (const std::string& rel : files) {
    std::string text;
    if (!read_file(root_path / rel, &text)) {
      std::cerr << "radiocast_analyze: error: cannot read " << rel << "\n";
      return 2;
    }
    sources.push_back({rel, std::move(text)});
  }

  const analyze::report rep = analyze::analyze_files(sources, manifest);

  for (const analyze::finding& f : rep.findings) {
    if (f.suppressed) continue;
    std::cout << f.path << ":" << f.line << ": [" << f.pass << "] "
              << f.message << "\n";
    if (!f.snippet.empty()) std::cout << "    " << f.snippet << "\n";
  }
  std::cout << "radiocast_analyze: " << rep.files_scanned << " files, "
            << rep.edges.size() << " include edges, "
            << rep.unsuppressed_count() << " findings, "
            << rep.suppressed_count() << " suppressed\n";

  if (!json_out.empty()) {
    // One check after the flush covers a failed open and a short write
    // (a full disk) alike.
    std::ofstream out(json_out, std::ios::binary);
    analyze::report_to_json(rep).write(out, 2);
    out << "\n";
    out.flush();
    if (!out) {
      std::cerr << "radiocast_analyze: error: cannot write " << json_out
                << "\n";
      return 2;
    }
  }
  return rep.unsuppressed_count() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace radiocast

int main(int argc, char** argv) {
  return radiocast::run({argv + 1, argv + argc});
}
