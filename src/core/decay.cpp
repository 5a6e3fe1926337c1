#include "core/decay.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/soa_engine.h"
#include "util/assert.h"
#include "util/math.h"

namespace radiocast {

namespace {

constexpr message_kind kDecayPayload = 1;

// Phase markers (obs/metrics.h handles, resolved once per registry).
const obs::metric_key kPhase("decay.phase");
const obs::metric_key kCutoff("decay.cutoff");

// decay.stage_tx{k}, indexed by the step offset k within a phase. A phase
// lasts 2⌈log(r+1)⌉ steps, and r+1 ≤ 2³¹ for any node_id, so 62 keys
// cover every offset.
constexpr std::int64_t kMaxPhaseLen =
    2 * std::numeric_limits<node_id>::digits;

std::vector<obs::metric_key> stage_tx_keys() {
  std::vector<obs::metric_key> keys;
  keys.reserve(kMaxPhaseLen);
  for (std::int64_t k = 0; k < kMaxPhaseLen; ++k) {
    keys.emplace_back("decay.stage_tx", std::to_string(k));
  }
  return keys;
}

const std::vector<obs::metric_key> kStageTx = stage_tx_keys();

// The protocol (sim/soa_engine.h traits): soa_runner runs it on every
// step engine and builds its bank.
struct decay_soa_traits {
  std::int64_t phase_len = 1;  // shared config: 2⌈log(r+1)⌉ (decay_traits)

  // Per-step cache (begin_step hoist): the phase arithmetic is a pure
  // function of the step number, identical for every node, so it is
  // computed once per step instead of once per awake node. on_step only
  // reads these, keeping the sharded phase-1 region race-free.
  std::int64_t step_phase = 0;
  std::int64_t step_offset = 0;
  std::int64_t phase_start = 0;

  // informed_step: the step of the informing delivery, −1 for the source
  // (informed before step 0), kUninformed otherwise — so it also says
  // whether the node is informed. The cutoff is at most kMaxPhaseLen and
  // fits 32 bits; the state packs into 24 bytes.
  static constexpr std::int64_t kUninformed =
      std::numeric_limits<std::int64_t>::max();
  struct state {
    std::int64_t informed_step = kUninformed;
    std::int64_t drawn_phase = -1;
    node_id label = 0;
    std::int32_t cutoff = 0;
  };

  // radiocast-analyze: hot-path-begin -- the per-step hooks, called for
  // every awake node (on_step) or every step (begin_step).
  void begin_step(std::int64_t step) {
    step_phase = step / phase_len;
    step_offset = step % phase_len;
    phase_start = step_phase * phase_len;
  }

  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    reset(s);
  }

  std::optional<message> on_step(state* s, const node_context& ctx) const {
    if (s->informed_step >= phase_start) {
      // Uninformed, or informed mid-phase and joining the next phase.
      return std::nullopt;
    }
    if (step_phase != s->drawn_phase) {
      // Draw this phase's geometric cutoff: transmit in steps 0..cutoff−1.
      s->drawn_phase = step_phase;
      s->cutoff = 1;
      while (s->cutoff < phase_len && ctx.gen->flip()) ++s->cutoff;
      if (ctx.metrics != nullptr) {
        // Phase markers: which decay phase is live, and the distribution
        // of drawn cutoffs (geometric, mean ≈ 2).
        ctx.metrics->gauge_at(kPhase).set(step_phase);
        ctx.metrics->histogram_at(kCutoff).observe(s->cutoff);
      }
    }
    if (step_offset < s->cutoff) {
      if (ctx.metrics != nullptr) {
        // Stage index within the phase: stage k transmits with effective
        // probability 2⁻ᵏ across the informed population.
        RC_CHECK(step_offset < kMaxPhaseLen);
        ctx.metrics->counter_at(kStageTx[static_cast<std::size_t>(step_offset)])
            .add();
      }
      return message{kDecayPayload, s->label, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context& ctx, const message&) const {
    if (!informed(*s)) s->informed_step = ctx.step;
  }

  bool informed(const state& s) const {
    return s.informed_step != kUninformed;
  }
  bool halted(const state&) const { return false; }

  // Calendar hint (sim/protocol.h SLEEP CONTRACT), exact: the next step
  // t = step + 1 if on_step draws or transmits there, else the next phase
  // start. A node informed inside t's phase waits for the next one; a node
  // that has not drawn for t's phase draws at t, mid-phase too (after a
  // retain or amnesia recovery); a drawn node transmits while the offset is
  // below its cutoff. Reads only phase_len: it is asked at setup and after
  // recoveries, where the begin_step cache is not t's.
  std::int64_t next_poll(const state& s, std::int64_t step) const {
    if (!informed(s)) return kWakeOnReceive;
    const std::int64_t t = step + 1;
    const std::int64_t phase = t / phase_len;
    const std::int64_t start = phase * phase_len;
    if (s.informed_step >= start) return start + phase_len;
    if (s.drawn_phase != phase || t - start < s.cutoff) return t;
    return start + phase_len;
  }

  // Amnesia reboot: back to the initial state (the label is configuration;
  // everything else is volatile).
  void on_restart(state* s, const node_context&) const { reset(s); }

  void reset(state* s) const {
    s->informed_step = s->label == 0 ? -1 : kUninformed;
    s->drawn_phase = -1;
    s->cutoff = 0;
  }
  // radiocast-analyze: hot-path-end
};

static_assert(sizeof(decay_soa_traits::state) == 24);

decay_soa_traits decay_traits(node_id r) {
  decay_soa_traits traits;
  traits.phase_len =
      2 * std::max(1, ilog2_ceil(static_cast<std::uint64_t>(r) + 1));
  return traits;
}

}  // namespace

const soa_entry* decay_protocol::soa_runner() const {
  return &soa_entry_for<decay_traits>;
}

}  // namespace radiocast
