#include "fault/recovery.h"

#include <algorithm>

#include "util/assert.h"

namespace radiocast::fault {

namespace {
constexpr std::uint64_t kRecoverySalt = 0x4ec0'0e4a'0a11'0007ULL;
}  // namespace

recovery_model::recovery_model(recovery_options opts)
    : opts_(std::move(opts)) {
  RC_REQUIRE_MSG(
      opts_.crash_probability >= 0.0 && opts_.crash_probability <= 1.0,
      "crash_probability must lie in [0, 1]");
  RC_REQUIRE_MSG(opts_.recovery_probability >= 0.0 &&
                     opts_.recovery_probability <= 1.0,
                 "recovery_probability must lie in [0, 1]");
  RC_REQUIRE_MSG(opts_.downtime >= 0,
                 "downtime must be ≥ 1 steps (or 0 to disable)");
  for (const auto& [node, step] : opts_.schedule) {
    RC_REQUIRE_MSG(node >= 0, "scheduled crash node must be non-negative");
    RC_REQUIRE_MSG(step >= 0, "scheduled crash step must be non-negative");
  }
}

std::string recovery_model::name() const {
  return opts_.mode == recovery_mode::amnesia ? "recovery_amnesia"
                                              : "recovery_retain";
}

void recovery_model::begin_run(const run_view& view) {
  n_ = view.g->node_count();
  gen_ = rng(mix_seed(view.seed, kRecoverySalt));
  down_.assign(static_cast<std::size_t>(n_), 0);
  down_since_.assign(static_cast<std::size_t>(n_), -1);
  down_count_ = 0;
  crashed_count_ = 0;
  recovered_count_ = 0;
  schedule_cursor_ = 0;
  schedule_.clear();
  schedule_.reserve(opts_.schedule.size());
  for (const auto& [node, step] : opts_.schedule) {
    RC_REQUIRE_MSG(node < n_, "scheduled crash node out of range");
    schedule_.emplace_back(step, node);
  }
  std::sort(schedule_.begin(), schedule_.end());
}

void recovery_model::begin_step(const step_view& view, step_faults* out) {
  auto crash = [&](node_id v) {
    auto& d = down_[static_cast<std::size_t>(v)];
    if (d != 0) return;
    d = 1;
    down_since_[static_cast<std::size_t>(v)] = view.step;
    ++down_count_;
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
    // a pure function of the seed and the model's own up/down history.
    // A local copy of the generator stays in registers across the loop.
    const node_id first = opts_.spare_source ? 1 : 0;
    rng gen = gen_;
    for (node_id v = first; v < n_; ++v) {
      if (down_[static_cast<std::size_t>(v)] != 0) continue;
      if (gen.bernoulli(opts_.crash_probability)) crash(v);
    }
    gen_ = gen;
  }

  if (!recovery_enabled() || down_count_ == 0) return;
  const bool amnesia = opts_.mode == recovery_mode::amnesia;
  rng gen = gen_;
  for (node_id v = 0; v < n_; ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (down_[i] == 0) continue;
    if (down_since_[i] == view.step) continue;  // down ≥ the crash step
    bool up = opts_.downtime > 0 &&
              view.step - down_since_[i] >= opts_.downtime;
    if (!up && opts_.recovery_probability > 0.0) {
      // Geometric: one draw per down node per step, in fixed node order.
      up = gen.bernoulli(opts_.recovery_probability);
    }
    if (!up) continue;
    down_[i] = 0;
    down_since_[i] = -1;
    --down_count_;
    ++recovered_count_;
    out->recoveries.push_back({v, amnesia});
  }
  gen_ = gen;
}

std::int64_t recovery_model::pending_recoveries() const {
  return recovery_enabled() ? down_count_ : 0;
}

}  // namespace radiocast::fault
