// perfbench — the repo benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
//   perfbench --derive-pins --workload NAME --work-dir DIR
//   perfbench --selftest
//
// Prints one JSON object on its last line of standard output and exits 0
// only when every output check passed. perfbench/run.py builds this binary
// and is the entry point; see perfbench/README.md.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "probes.h"
#include "workloads.h"

namespace perfbench {
int run_selftests();
}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n"
               "       perfbench --derive-pins --workload NAME --work-dir DIR\n"
               "       perfbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_config cfg;
  bool selftest = false;
  bool pins = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        cfg.trace = value() == "1";
      } else if (arg == "--work-dir") {
        cfg.work_dir = value();
      } else if (arg == "--selftest") {
        selftest = true;
      } else if (arg == "--derive-pins") {
        pins = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return usage();
  }

  if (selftest) return perfbench::run_selftests();
  if (cfg.workload.empty() || cfg.seconds <= 0.0) return usage();
  if (pins) {
    std::cout << perfbench::derive_pins(cfg.workload, cfg.work_dir).dump()
              << "\n";
    return 0;
  }

  perfbench::run_report rep;
  perfbench::span_log spans(cfg.trace);
  try {
    perfbench::run_workload(cfg, rep, spans);
  } catch (const std::exception& e) {
    rep.attempt(false, std::string("exception: ") + e.what());
  }
  radiocast::obs::json_value out = rep.to_json();
  out.set("workload", cfg.workload);
  out.set("seed", static_cast<std::int64_t>(cfg.seed));
  out.set("trace", cfg.trace);
  out.set("host", perfbench::host_fingerprint());
  if (cfg.trace) out.set("spans", spans.to_json());
  std::cout << out.dump() << "\n";
  return rep.correct() ? 0 : 1;
}
