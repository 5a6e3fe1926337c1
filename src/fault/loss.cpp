#include "fault/loss.h"

#include "util/assert.h"

namespace radiocast::fault {

namespace {
constexpr std::uint64_t kLossSalt = 0x1055'feed'5eed'0002ULL;
}  // namespace

loss_model::loss_model(loss_options opts) : opts_(opts) {
  RC_REQUIRE_MSG(
      opts_.drop_probability >= 0.0 && opts_.drop_probability <= 1.0,
      "drop_probability must lie in [0, 1]");
}

void loss_model::begin_run(const run_view& view) {
  gen_ = rng(mix_seed(view.seed, kLossSalt));
  dropped_count_ = 0;
  (void)view;
}

void loss_model::filter_deliveries(
    const step_view& view, std::vector<delivery_candidate>* candidates) {
  (void)view;
  if (opts_.drop_probability <= 0.0) return;
  rng gen = gen_;  // a local copy stays in registers across the loop
  for (delivery_candidate& c : *candidates) {
    if (c.suppressed) continue;  // spend no randomness on dead candidates
    if (gen.bernoulli(opts_.drop_probability)) {
      c.suppressed = true;
      ++dropped_count_;
    }
  }
  gen_ = gen;
}

}  // namespace radiocast::fault
