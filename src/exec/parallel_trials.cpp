#include "exec/parallel_trials.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "fault/fault_model.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/assert.h"

namespace radiocast {

namespace {

/// One contiguous slice of the seed range, with the private observability
/// and fault state its worker runs against.
struct shard {
  int index = 0;  ///< shard position within the batch (seed order)
  int first = 0;  ///< index of the shard's first trial within the batch
  int count = 0;
  std::unique_ptr<obs::metrics_registry> metrics;
  std::unique_ptr<fault::fault_model> faults;
  obs::span_profiler profiler;
  trial_set result;
  bool done = false;    ///< guarded by the fold mutex
  bool failed = false;  ///< guarded by the fold mutex

  shard_info info(std::uint64_t batch_base_seed) const {
    shard_info si;
    si.index = index;
    si.first = first;
    si.count = count;
    si.base_seed = batch_base_seed + static_cast<std::uint64_t>(first);
    return si;
  }
};

}  // namespace

trial_set parallel_run_trials(const graph& g, const protocol& proto,
                              const trial_options& opts) {
  RC_REQUIRE(opts.trials >= 1);
  RC_REQUIRE(opts.shard_size >= 0);
  const int threads = exec::resolve_threads(opts.threads);
  // The plain-serial fast path exists only when nothing observable depends
  // on shard structure: no lifecycle hooks, no pinned shard size.
  if (!opts.hooks.any() && opts.shard_size == 0 &&
      (threads <= 1 || opts.trials <= 1)) {
    return run_trials(g, proto, opts);  // the serial path, untouched
  }

  obs::span_profiler* profiler =
      opts.profiler != nullptr ? opts.profiler : obs::global_profiler();
  obs::scoped_span batch_span(profiler, "parallel_run_trials");

  const int workers = std::max(1, std::min(threads, opts.trials));
  // Shard boundaries: a pinned shard_size makes them a function of the
  // batch alone, not of the host's core count; auto mode cuts a few per worker so one slow seed does not
  // serialize the tail. Either way shards stay contiguous in seed order,
  // which is what makes the in-order fold below reproduce the serial
  // registry (series concatenate per trial, in seed order).
  const int shard_count =
      opts.shard_size > 0
          ? (opts.trials + opts.shard_size - 1) / opts.shard_size
          : std::min(opts.trials, workers * 4);
  std::vector<shard> shards(static_cast<std::size_t>(shard_count));
  {
    const int base = opts.trials / shard_count;
    const int rem = opts.trials % shard_count;
    int offset = 0;
    for (int i = 0; i < shard_count; ++i) {
      shard& s = shards[static_cast<std::size_t>(i)];
      s.index = i;
      s.first = offset;
      s.count = opts.shard_size > 0
                    ? std::min(opts.shard_size, opts.trials - offset)
                    : base + (i < rem ? 1 : 0);
      offset += s.count;
      if (opts.metrics != nullptr) {
        s.metrics = std::make_unique<obs::metrics_registry>();
      }
      if (opts.faults != nullptr) {
        s.faults = opts.faults->clone();
        RC_CHECK_MSG(s.faults != nullptr,
                     "fault model \"" + opts.faults->name() +
                         "\" does not support clone(); parallel trial "
                         "batches need one model instance per worker — "
                         "override fault_model::clone or run with threads=1");
      }
    }
    RC_CHECK_MSG(offset == opts.trials,
                 "shard plan does not cover the trial range exactly");
  }

  std::mutex mu;
  std::condition_variable shard_done;
  std::exception_ptr first_error;

  trial_set out;
  if (!opts.hooks.discard_records) {
    out.trials.reserve(static_cast<std::size_t>(opts.trials));
  }
  {
    exec::thread_pool pool(workers);
    for (shard& s : shards) {
      pool.submit([&g, &proto, &opts, &s, &mu, &shard_done, &first_error] {
        try {
          if (opts.hooks.on_start) opts.hooks.on_start(s.info(opts.base_seed));
          trial_options topts;
          topts.trials = s.count;
          topts.base_seed =
              opts.base_seed + static_cast<std::uint64_t>(s.first);
          topts.max_steps = opts.max_steps;
          topts.stop = opts.stop;
          topts.metrics = s.metrics.get();
          // Never null: a worker must not fall back to the process-wide
          // global_profiler, which is not thread-safe.
          topts.profiler = &s.profiler;
          topts.faults = s.faults.get();
          topts.engine = opts.engine;
          topts.verify_sleepers = opts.verify_sleepers;
          topts.step_threads = opts.step_threads;
          topts.step_shard_grain = opts.step_shard_grain;
          s.result = run_trials(g, proto, topts);
          const std::lock_guard<std::mutex> lock(mu);
          s.done = true;
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu);
          if (first_error == nullptr) first_error = std::current_exception();
          s.failed = true;
          s.done = true;
        }
        shard_done.notify_all();
      });
    }

    // Streaming fold: wait for each shard IN SEED ORDER and retire it while
    // later shards are still running — on_done fires on this thread with
    // the shard's records, then the shard's memory is released. Bounded by
    // the skew between shards, not the whole batch.
    for (shard& s : shards) {
      bool failed = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        shard_done.wait(lock, [&s] { return s.done; });
        failed = s.failed;
      }
      // A failed shard ends the fold: every earlier shard already streamed
      // out (a valid prefix), no later shard's on_done fires.
      if (failed) break;
      RC_CHECK_MSG(static_cast<int>(s.result.trials.size()) == s.count,
                   "worker shard returned a partial trial batch");
      if (opts.hooks.on_done) {
        opts.hooks.on_done(s.info(opts.base_seed), s.result);
      }
      if (opts.metrics != nullptr) opts.metrics->merge(*s.metrics);
      if (profiler != nullptr) profiler->merge(s.profiler);
      if (opts.hooks.discard_records) {
        s.result = trial_set{};  // release now, while later shards run
      } else {
        out.trials.insert(out.trials.end(),
                          std::make_move_iterator(s.result.trials.begin()),
                          std::make_move_iterator(s.result.trials.end()));
        s.result = trial_set{};
      }
      s.metrics.reset();
    }
    pool.wait_idle();
  }  // joins the workers
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return out;
}

}  // namespace radiocast
