// radiocast_campaign — runs, resumes, and merges sharded parameter-sweep
// campaigns (docs/CAMPAIGNS.md).
//
//   radiocast_campaign plan  MANIFEST
//       prints the deterministic shard plan (no execution)
//   radiocast_campaign run   MANIFEST --out DIR [--stop-after N] [--fresh]
//       executes pending shards into DIR, checkpointing after each; a
//       rerun of the same command resumes where the last one stopped
//   radiocast_campaign merge MANIFEST --out DIR [--output FILE]
//       folds the completed shard artifacts into one radiocast.bench.v1
//       document (stdout unless --output)
//
// Exit codes: 0 success, 1 failure (diagnostic on stderr), 2 usage.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/manifest.h"

namespace radiocast {
namespace {

int usage() {
  std::cerr
      << "usage: radiocast_campaign plan  MANIFEST\n"
         "       radiocast_campaign run   MANIFEST --out DIR"
         " [--stop-after N] [--fresh]\n"
         "       radiocast_campaign merge MANIFEST --out DIR"
         " [--output FILE]\n";
  return 2;
}

std::optional<campaign::manifest> load(const std::string& path) {
  std::string error;
  std::optional<campaign::manifest> m = campaign::load_manifest(path, &error);
  if (!m) std::cerr << "error: " << error << "\n";
  return m;
}

int cmd_plan(const std::string& manifest_path) {
  std::optional<campaign::manifest> m = load(manifest_path);
  if (!m) return 1;
  const std::vector<campaign::shard_plan> plan = campaign::plan_shards(*m);
  std::cout << "campaign: " << m->name << "\n"
            << "points:   " << m->grid.size() << "\n"
            << "shards:   " << plan.size() << "\n";
  for (const campaign::shard_plan& s : plan) {
    std::cout << "  " << campaign::shard_file_name(s.shard) << "  "
              << m->grid[static_cast<std::size_t>(s.point)].case_name()
              << "  trials " << s.first_trial << ".."
              << s.first_trial + s.count - 1 << "  seeds " << s.base_seed
              << ".." << s.base_seed + static_cast<std::uint64_t>(s.count) - 1
              << "\n";
  }
  return 0;
}

int cmd_run(const std::string& manifest_path,
            const campaign::campaign_options& opts) {
  std::optional<campaign::manifest> m = load(manifest_path);
  if (!m) return 1;
  const campaign::campaign_result result = campaign::run_campaign(*m, opts);
  if (!result.ok) {
    std::cerr << "error: " << result.error << "\n";
    return 1;
  }
  std::cout << "[campaign] " << m->name << ": " << result.executed
            << " executed, " << result.skipped << " resumed of "
            << result.total_shards << " shards"
            << (result.finished ? " — complete" : " — interrupted") << "\n";
  return 0;
}

int cmd_merge(const std::string& manifest_path, const std::string& out_dir,
              const std::string& output) {
  std::optional<campaign::manifest> m = load(manifest_path);
  if (!m) return 1;
  std::string error;
  std::optional<obs::json_value> doc =
      campaign::merge_campaign(*m, out_dir, &error);
  if (!doc) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  if (output.empty()) {
    doc->write(std::cout, 2);
    std::cout << "\n";
  } else {
    // One check after the flush covers a failed open and a short write.
    std::ofstream out(output, std::ios::binary | std::ios::trunc);
    doc->write(out, 2);
    out << "\n";
    out.flush();
    if (!out) {
      std::cerr << "error: cannot write " << output << "\n";
      return 1;
    }
    std::cout << "[campaign] merged "
              << doc->find("cases")->items().size() << " cases into "
              << output << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace radiocast

int main(int argc, char** argv) {
  using radiocast::usage;
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2) return usage();
  const std::string& cmd = args[0];
  const std::string& manifest_path = args[1];

  std::string out_dir, output;
  int stop_after = -1;
  bool fresh = false;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out_dir = args[++i];
    } else if (args[i] == "--stop-after" && i + 1 < args.size()) {
      stop_after = std::atoi(args[++i].c_str());
    } else if (args[i] == "--output" && i + 1 < args.size()) {
      output = args[++i];
    } else if (args[i] == "--fresh") {
      fresh = true;
    } else {
      return usage();
    }
  }

  if (cmd == "plan" && args.size() == 2) {
    return radiocast::cmd_plan(manifest_path);
  }
  if (cmd == "run" && !out_dir.empty()) {
    radiocast::campaign::campaign_options opts;
    opts.out_dir = out_dir;
    opts.stop_after = stop_after;
    opts.fresh = fresh;
    opts.log = &std::cout;
    return radiocast::cmd_run(manifest_path, opts);
  }
  if (cmd == "merge" && !out_dir.empty()) {
    return radiocast::cmd_merge(manifest_path, out_dir, output);
  }
  return usage();
}
