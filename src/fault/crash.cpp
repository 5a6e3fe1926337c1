#include "fault/crash.h"

#include <algorithm>

#include "util/assert.h"

namespace radiocast::fault {

namespace {
constexpr std::uint64_t kCrashSalt = 0xc4a5'11fa'0170'0001ULL;
}  // namespace

crash_model::crash_model(crash_options opts) : opts_(std::move(opts)) {
  RC_REQUIRE_MSG(
      opts_.crash_probability >= 0.0 && opts_.crash_probability <= 1.0,
      "crash_probability must lie in [0, 1]");
  for (const auto& [node, step] : opts_.schedule) {
    RC_REQUIRE_MSG(node >= 0, "scheduled crash node must be non-negative");
    RC_REQUIRE_MSG(step >= 0, "scheduled crash step must be non-negative");
  }
}

void crash_model::begin_run(const run_view& view) {
  n_ = view.g->node_count();
  gen_ = rng(mix_seed(view.seed, kCrashSalt));
  down_.assign(static_cast<std::size_t>(n_), 0);
  crashed_count_ = 0;
  schedule_cursor_ = 0;
  schedule_.clear();
  schedule_.reserve(opts_.schedule.size());
  for (const auto& [node, step] : opts_.schedule) {
    RC_REQUIRE_MSG(node < n_, "scheduled crash node out of range");
    schedule_.emplace_back(step, node);
  }
  std::sort(schedule_.begin(), schedule_.end());
}

void crash_model::begin_step(const step_view& view, step_faults* out) {
  auto crash = [&](node_id v) {
    auto& d = down_[static_cast<std::size_t>(v)];
    if (d != 0) return;
    d = 1;
    ++crashed_count_;
    out->crashes.push_back(v);
  };

  while (schedule_cursor_ < schedule_.size() &&
         schedule_[schedule_cursor_].first == view.step) {
    crash(schedule_[schedule_cursor_].second);
    ++schedule_cursor_;
  }

  if (opts_.crash_probability > 0.0) {
    // Fixed node order keeps the draw sequence — and thus the schedule —
    // a pure function of the seed and the model's own crash history.
    // A local copy of the generator stays in registers across the loop.
    const node_id first = opts_.spare_source ? 1 : 0;
    rng gen = gen_;
    for (node_id v = first; v < n_; ++v) {
      if (down_[static_cast<std::size_t>(v)] != 0) continue;
      if (gen.bernoulli(opts_.crash_probability)) crash(v);
    }
    gen_ = gen;
  }
}

}  // namespace radiocast::fault
