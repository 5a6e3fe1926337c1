// radiocast_chaos — seed-driven invariant fuzzing over fault models,
// protocols, and graph families (src/fault/chaos.h).
//
//   radiocast_chaos [--runs N] [--seed S] [--max-steps M]
//                   [--out FILE] [--no-minimize]
//
// Runs N sampled scenarios, checks every chaos invariant on each, and
// emits a radiocast.chaos.v1 JSON report (stdout, or FILE with --out; a
// one-line verdict always goes to stderr). Exit status: 0 iff every run
// passed every invariant — scripts/ci.sh runs a sanitizer-built smoke
// sweep and fails the push on any violation.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fault/chaos.h"

namespace {

int usage() {
  std::cerr << "usage: radiocast_chaos [--runs N] [--seed S] [--max-steps M]"
               " [--out FILE] [--no-minimize]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  radiocast::fault::chaos_options opts;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    if (a == "--runs" && has_value) {
      opts.runs = std::atoll(args[++i].c_str());
    } else if (a == "--seed" && has_value) {
      opts.base_seed =
          static_cast<std::uint64_t>(std::atoll(args[++i].c_str()));
    } else if (a == "--max-steps" && has_value) {
      opts.max_steps = std::atoll(args[++i].c_str());
    } else if (a == "--out" && has_value) {
      out_path = args[++i];
    } else if (a == "--no-minimize") {
      opts.minimize = false;
    } else {
      return usage();
    }
  }
  if (opts.runs < 0 || opts.max_steps < 1) return usage();

  const radiocast::fault::chaos_report report =
      radiocast::fault::run_chaos(opts);
  const radiocast::obs::json_value doc = report.to_json();
  if (out_path.empty()) {
    doc.write(std::cout, 2);
    std::cout << "\n";
  } else {
    // One check after the flush covers a failed open and a short write.
    std::ofstream out(out_path, std::ios::binary);
    doc.write(out, 2);
    out << "\n";
    out.flush();
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
  }

  std::int64_t checks = 0;
  for (const radiocast::fault::invariant_stats& s : report.invariants) {
    checks += s.checks;
  }
  std::cerr << "chaos: " << report.runs << " runs, " << checks
            << " invariant checks, " << report.failed_runs << " failed\n";
  for (const radiocast::fault::chaos_failure& f : report.failures) {
    std::cerr << "  seed " << f.seed << " [" << f.invariant << "] "
              << f.scenario << ": " << f.detail << "\n";
  }
  return report.ok() ? 0 : 1;
}
