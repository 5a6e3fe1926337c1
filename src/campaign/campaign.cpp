#include "campaign/campaign.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "campaign/artifact.h"
#include "campaign/checkpoint.h"
#include "exec/thread_pool.h"
#include "obs/span.h"
#include "util/assert.h"
#include "util/stats.h"

namespace radiocast::campaign {

namespace fs = std::filesystem;

std::vector<shard_plan> plan_shards(const manifest& m) {
  RC_REQUIRE(m.trials_per_point >= 1);
  const int slice = m.shard_size > 0 ? m.shard_size : m.trials_per_point;
  std::vector<shard_plan> plan;
  int id = 0;
  for (int point = 0; point < static_cast<int>(m.grid.size()); ++point) {
    for (int first = 0; first < m.trials_per_point;) {
      shard_plan s;
      s.shard = id++;
      s.point = point;
      s.first_trial = first;
      s.count = std::min(slice, m.trials_per_point - first);
      s.base_seed = m.base_seed + static_cast<std::uint64_t>(first);
      first += s.count;  // never past trials_per_point, so never overflows
      plan.push_back(s);
    }
  }
  return plan;
}

std::string shard_file_name(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%04d.ndjson", shard);
  return buf;
}

namespace {

std::string shard_path(const std::string& out_dir, int shard) {
  return out_dir + "/shards/" + shard_file_name(shard);
}

shard_header make_header(const manifest& m, const shard_plan& s) {
  shard_header h;
  h.campaign = m.name;
  h.shard = s.shard;
  h.point = s.point;
  h.case_name = m.grid[static_cast<std::size_t>(s.point)].case_name();
  h.params = m.grid[static_cast<std::size_t>(s.point)].to_json();
  h.first_trial = s.first_trial;
  h.trials = s.count;
  h.base_seed = s.base_seed;
  return h;
}

/// Pool chunks a worker may run ahead of the in-order retire cursor. Bounds
/// the trial text held in memory to a few chunks per worker while keeping
/// every worker busy past one slow chunk.
constexpr std::size_t kChunksAheadPerWorker = 3;

/// One unit of pool work: a contiguous seed slice of one pending shard.
struct chunk {
  const shard_plan* shard = nullptr;
  int first = 0;  ///< offset of the chunk's first trial within its shard
  int count = 0;
  bool opens_shard = false;   ///< first chunk of its shard
  bool closes_shard = false;  ///< last chunk of its shard
  bool closes_point = false;  ///< last pending chunk of its grid point
  // Filled in before `done` is set; read by the retiring thread after.
  std::string text;  ///< the chunk's trial lines, NDJSON
  std::exception_ptr error;
  bool done = false;  ///< guarded by run_pending's mutex
};

/// Cuts the pending shards into chunks, in plan order. A shard of more than
/// ⌈pending trials / (4·workers)⌉ trials splits into equal chunks, so the
/// pool has a few chunks per worker even when there are fewer shards than
/// workers; smaller shards stay whole.
std::vector<chunk> plan_chunks(const std::vector<const shard_plan*>& pending,
                               int workers) {
  std::int64_t total = 0;
  for (const shard_plan* s : pending) total += s->count;
  const std::int64_t target_chunks = 4 * static_cast<std::int64_t>(workers);
  const std::int64_t cap = (total + target_chunks - 1) / target_chunks;
  std::vector<chunk> chunks;
  for (const shard_plan* s : pending) {
    const int pieces = static_cast<int>((s->count + cap - 1) / cap);
    const int base = s->count / pieces;
    const int rem = s->count % pieces;
    int first = 0;
    for (int i = 0; i < pieces; ++i) {
      chunk c;
      c.shard = s;
      c.first = first;
      c.count = base + (i < rem ? 1 : 0);
      c.opens_shard = i == 0;
      c.closes_shard = i == pieces - 1;
      first += c.count;
      chunks.push_back(std::move(c));
    }
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].closes_point = i + 1 == chunks.size() ||
                             chunks[i + 1].shard->point !=
                                 chunks[i].shard->point;
  }
  return chunks;
}

/// A grid point's topology and protocol, shared read-only by its chunks.
struct point_state {
  graph g;
  std::unique_ptr<protocol> proto;
};

/// Runs one chunk through the serial run_trials and serializes its records
/// to NDJSON text — on a pool worker, so the retiring thread only copies
/// bytes to the artifact.
std::string run_chunk(const manifest& m, const point_state& point,
                      const chunk& c) {
  // Private: a worker must not fall back to the process-wide
  // global_profiler, which is not thread-safe.
  obs::span_profiler profiler;
  trial_options topts;
  topts.trials = c.count;
  topts.base_seed = c.shard->base_seed + static_cast<std::uint64_t>(c.first);
  topts.max_steps = m.max_steps;
  topts.profiler = &profiler;
  const trial_set set = run_trials(point.g, *point.proto, topts);
  RC_CHECK_MSG(static_cast<int>(set.trials.size()) == c.count,
               "chunk returned a partial trial batch");
  std::string out;
  for (const trial_record& t : set.trials) {
    out += trial_record_json(t).dump();
    out += '\n';
  }
  return out;
}

/// Executes the pending shards on one pool and retires them in plan order
/// on the calling thread: the first chunk of a shard opens its `.tmp` and
/// writes the header, every chunk appends its text, the last one writes the
/// footer, renames the artifact into place and rewrites the checkpoint.
/// Throws the first failure in plan order, with every earlier shard
/// retired and checkpointed; after a failure no later chunk starts.
void run_pending(const manifest& m,
                 const std::vector<const shard_plan*>& pending,
                 const campaign_options& opts, checkpoint& cp,
                 const std::string& cp_path, campaign_result& result) {
  const int threads = exec::resolve_threads(m.threads);
  std::vector<chunk> chunks = plan_chunks(pending, threads);
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), chunks.size()));
  const std::size_t window =
      kChunksAheadPerWorker * static_cast<std::size_t>(workers);

  // Declared before the pool: tasks reference them until the pool joins.
  std::mutex mu;
  std::condition_variable chunk_done;
  // Chunks after this index never start: the first failed chunk (or the
  // retire cursor, when retiring fails). Guarded by mu.
  std::size_t stop_after = std::numeric_limits<std::size_t>::max();
  const auto fail_at = [&mu, &stop_after](std::size_t i) {
    const std::lock_guard<std::mutex> lock(mu);
    stop_after = std::min(stop_after, i);
  };
  std::vector<std::unique_ptr<point_state>> points(m.grid.size());
  exec::thread_pool pool(workers);

  // Hands chunk i to the pool, building its point's graph and protocol on
  // the point's first chunk. A failed build becomes the chunk's error, and
  // no later chunk is submitted.
  std::size_t submit_end = chunks.size();
  const auto submit = [&](std::size_t i) {
    chunk& c = chunks[i];
    std::unique_ptr<point_state>& point =
        points[static_cast<std::size_t>(c.shard->point)];
    try {
      if (point == nullptr) {
        const grid_point& gp = m.grid[static_cast<std::size_t>(c.shard->point)];
        point = std::make_unique<point_state>(
            point_state{build_graph(gp), build_protocol(gp)});
      }
    } catch (...) {
      c.error = std::current_exception();
      c.done = true;  // the pool never saw it: no lock needed
      fail_at(i);
      submit_end = i + 1;
      return;
    }
    pool.submit([&, i, state = point.get()] {
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (i > stop_after) return;  // never retired
      }
      std::string text;
      std::exception_ptr error;
      try {
        text = run_chunk(m, *state, chunks[i]);
      } catch (...) {
        error = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        chunks[i].text = std::move(text);
        chunks[i].error = error;
        chunks[i].done = true;
        if (error != nullptr) stop_after = std::min(stop_after, i);
      }
      chunk_done.notify_all();
    });
  };

  std::size_t retired = 0;
  try {
    std::size_t submitted = 0;
    std::ofstream out;
    std::string tmp_path;
    for (; retired < chunks.size(); ++retired) {
      for (; submitted < submit_end && submitted < retired + window;
           ++submitted) {
        submit(submitted);
      }
      chunk& c = chunks[retired];
      {
        std::unique_lock<std::mutex> lock(mu);
        chunk_done.wait(lock, [&c] { return c.done; });
      }
      if (c.error != nullptr) std::rethrow_exception(c.error);
      const shard_plan& s = *c.shard;
      const std::string final_path = shard_path(opts.out_dir, s.shard);
      if (c.opens_shard) {
        tmp_path = final_path + ".tmp";
        out.open(tmp_path, std::ios::binary | std::ios::trunc);
        RC_CHECK_MSG(static_cast<bool>(out),
                     "cannot open shard temp file " + tmp_path);
        header_record(make_header(m, s)).write(out);
        out << '\n';
      }
      out << c.text;
      std::string().swap(c.text);
      if (c.closes_shard) {
        footer_record(s.shard, s.count).write(out);
        out << '\n';
        out.flush();
        RC_CHECK_MSG(static_cast<bool>(out),
                     "short write to shard temp file " + tmp_path);
        out.close();
        RC_CHECK_MSG(std::rename(tmp_path.c_str(), final_path.c_str()) == 0,
                     "cannot rename " + tmp_path + " over " + final_path);
        cp.mark_completed(s.shard);
        save_checkpoint(cp, cp_path);
        ++result.executed;
        if (opts.log != nullptr) {
          *opts.log << "[campaign] shard " << s.shard + 1 << "/"
                    << result.total_shards << " done ("
                    << m.grid[static_cast<std::size_t>(s.point)].case_name()
                    << " trials " << s.first_trial << ".."
                    << s.first_trial + s.count - 1 << ")\n";
        }
      }
      if (c.closes_point) points[static_cast<std::size_t>(s.point)].reset();
    }
  } catch (...) {
    // The pool drains its whole queue on destruction: stop every chunk
    // that has not started yet before unwinding into it.
    fail_at(retired);
    throw;
  }
}

}  // namespace

campaign_result run_campaign(const manifest& m,
                             const campaign_options& opts) {
  campaign_result result;
  auto fail = [&result](const std::string& why) {
    result.ok = false;
    result.error = why;
    return result;
  };
  try {
    const std::vector<shard_plan> plan = plan_shards(m);
    result.total_shards = static_cast<int>(plan.size());

    fs::create_directories(fs::path(opts.out_dir) / "shards");
    const std::string cp_path = opts.out_dir + "/checkpoint.json";

    checkpoint cp;
    cp.campaign = m.name;
    cp.manifest_fingerprint = m.fingerprint();
    cp.total_shards = result.total_shards;
    if (opts.fresh) {
      std::error_code ec;
      fs::remove(cp_path, ec);
      for (const shard_plan& s : plan) {
        fs::remove(shard_path(opts.out_dir, s.shard), ec);
      }
    } else {
      std::string cp_error;
      std::optional<checkpoint> loaded = load_checkpoint(cp_path, &cp_error);
      if (!loaded && !cp_error.empty()) return fail(cp_error);
      if (loaded) {
        if (loaded->manifest_fingerprint != cp.manifest_fingerprint) {
          return fail(
              "checkpoint was written by a different manifest "
              "(fingerprint mismatch) — rerun with --fresh to discard it");
        }
        if (loaded->total_shards != cp.total_shards) {
          return fail("checkpoint shard count disagrees with the plan");
        }
        cp = std::move(*loaded);
      }
    }

    // The shards this invocation runs: a shard counts as done only when
    // BOTH the checkpoint lists it and its artifact file survives — a
    // deleted artifact is re-run. --stop-after keeps the first N.
    std::vector<const shard_plan*> pending;
    bool stopped = false;
    for (const shard_plan& s : plan) {
      if (cp.is_completed(s.shard) &&
          fs::exists(shard_path(opts.out_dir, s.shard))) {
        ++result.skipped;
        continue;
      }
      if (opts.stop_after >= 0 &&
          static_cast<int>(pending.size()) >= opts.stop_after) {
        stopped = true;  // clean interruption: the checkpoint stays durable
        break;
      }
      pending.push_back(&s);
    }
    if (!pending.empty()) {
      run_pending(m, pending, opts, cp, cp_path, result);
    }
    result.ok = true;
    result.finished =
        !stopped && result.skipped + result.executed == result.total_shards;
    return result;
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}

std::optional<obs::json_value> merge_campaign(const manifest& m,
                                              const std::string& out_dir,
                                              std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<obs::json_value> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const std::vector<shard_plan> plan = plan_shards(m);

  obs::json_value cases = obs::json_value::array();
  std::size_t next = 0;
  for (int point = 0; point < static_cast<int>(m.grid.size()); ++point) {
    const grid_point& gp = m.grid[static_cast<std::size_t>(point)];
    trial_set merged;
    merged.trials.reserve(static_cast<std::size_t>(m.trials_per_point));
    // Fold this point's shards in seed order — the order of a serial
    // run_trials, which is what makes the merged document independent of
    // interruption history and thread count.
    for (; next < plan.size() && plan[next].point == point; ++next) {
      const shard_plan& s = plan[next];
      const std::string path = out_dir + "/shards/" + shard_file_name(s.shard);
      std::string detail;
      std::optional<shard_artifact> art = read_shard_file(path, &detail);
      if (!art) return fail(detail);
      if (!art->complete) {
        return fail(path + ": shard is incomplete (no confirming footer) — "
                    "rerun the campaign before merging");
      }
      if (art->header.point != s.point ||
          art->header.first_trial != s.first_trial ||
          art->header.trials != s.count ||
          art->header.base_seed != s.base_seed ||
          art->header.case_name != gp.case_name()) {
        return fail(path + ": shard header disagrees with the manifest plan");
      }
      merged.trials.insert(merged.trials.end(), art->trials.begin(),
                           art->trials.end());
    }
    if (static_cast<int>(merged.trials.size()) != m.trials_per_point) {
      return fail(gp.case_name() + ": merged " +
                  std::to_string(merged.trials.size()) + " trials, expected " +
                  std::to_string(m.trials_per_point));
    }

    // One case per grid point, in bench::reporter's exact key layout.
    obs::json_value c = obs::json_value::object();
    c.set("name", gp.case_name());
    c.set("params", gp.to_json());
    obs::json_value trials = obs::json_value::array();
    for (const trial_record& t : merged.trials) {
      obs::json_value one = obs::json_value::object();
      one.set("seed", static_cast<std::int64_t>(t.seed));
      one.set("completed", t.completed);
      one.set("steps", t.steps);
      one.set("informed_step", t.informed_step);
      one.set("transmissions", t.transmissions);
      one.set("collisions", t.collisions);
      one.set("deliveries", t.deliveries);
      one.set("wall_ms", t.wall_ms);
      one.set("crashed_nodes", t.crashed_nodes);
      one.set("suppressed_deliveries", t.suppressed_deliveries);
      one.set("churned_edges", t.churned_edges);
      trials.push_back(std::move(one));
    }
    c.set("trials", std::move(trials));
    c.set("timeout_rate", merged.timeout_rate());
    c.set("wall_ms", merged.total_wall_ms());
    obs::json_value stats = obs::json_value::object();
    const std::vector<double> steps = merged.completion_steps();
    if (!steps.empty()) {
      const summary s = summarize(steps);
      stats.set("mean", s.mean);
      stats.set("stddev", s.stddev);
      stats.set("min", s.min);
      stats.set("p50", s.median);
      stats.set("p90", s.p90);
      stats.set("p95", s.p95);
      stats.set("p99", s.p99);
      stats.set("max", s.max);
    }
    c.set("steps", std::move(stats));
    cases.push_back(std::move(c));
  }

  obs::json_value doc = obs::json_value::object();
  doc.set("schema", "radiocast.bench.v1");
  doc.set("bench", m.name);
  obs::json_value config = obs::json_value::object();
  config.set("campaign", m.name);
  config.set("base_seed", static_cast<std::int64_t>(m.base_seed));
  config.set("trials_per_point", m.trials_per_point);
  config.set("shard_size",
             m.shard_size > 0 ? m.shard_size : m.trials_per_point);
  config.set("threads", m.threads);
  config.set("max_steps", m.max_steps);
  config.set("points", static_cast<std::int64_t>(m.grid.size()));
  config.set("shards", static_cast<std::int64_t>(plan.size()));
  doc.set("config", std::move(config));
  doc.set("cases", std::move(cases));
  doc.set("spans", obs::json_value::array());
  return doc;
}

}  // namespace radiocast::campaign
