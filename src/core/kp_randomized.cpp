#include "core/kp_randomized.h"

#include <cmath>
#include <vector>

#include "core/decay.h"
#include "obs/metrics.h"
#include "sim/soa_engine.h"
#include "util/assert.h"
#include "util/math.h"

namespace radiocast {

namespace {
constexpr message_kind kKpPayload = 1;

// Phase markers (obs/metrics.h handles, resolved once per registry).
const obs::metric_key kTxSourceStep("kp.tx", "source_step");
const obs::metric_key kTxUniversal("kp.tx", "universal");
const obs::metric_key kTxGeometric("kp.tx", "geometric");
const obs::metric_key kBlockLogD("kp.block_log_d");
const obs::metric_key kStage("kp.stage");
}  // namespace

/// One Randomized-Broadcasting(D) block of the (possibly doubling) schedule.
struct kp_block {
  int log_d = 0;
  std::int64_t start = 0;     ///< global offset of the block
  std::int64_t length = 0;    ///< 1 (source step) + stages·stage_len
  int stage_len = 0;          ///< log(r/D)+1 geometric steps (+1 unless
                              ///< ablated)
  int geometric_steps = 0;    ///< log(r/D)+1
  universal_sequence seq;
};

struct kp_randomized_protocol::schedule {
  int log_r = 0;
  std::int64_t total_length = 0;
  std::vector<kp_block> blocks;

  /// Locates the block containing schedule offset `pos` (0 ≤ pos < total).
  const kp_block& block_at(std::int64_t pos) const {
    RC_CHECK(pos >= 0 && pos < total_length);
    // Few blocks (≤ log r); linear scan.
    for (const kp_block& b : blocks) {
      if (pos < b.start + b.length) return b;
    }
    RC_CHECK(false);
    return blocks.back();  // unreachable
  }
};

namespace {

kp_block make_block(int log_r, int log_d, std::int64_t stage_budget,
                    bool ablate, std::int64_t start) {
  RC_CHECK(log_d >= 0 && log_d <= log_r);
  kp_block b{log_d, start, 0, 0, 0, universal_sequence(log_r, log_d)};
  b.geometric_steps = (log_r - log_d) + 1;
  b.stage_len = b.geometric_steps + (ablate ? 0 : 1);
  const std::int64_t stages = stage_budget << log_d;  // budget · D
  b.length = 1 + stages * b.stage_len;
  return b;
}

}  // namespace

// The protocol (sim/soa_engine.h traits), built by
// kp_randomized_protocol::traits: the immutable schedule stays shared
// configuration on the traits object; only the informed flag and its
// timestamp are per-node state.
struct kp_soa_traits {
  std::shared_ptr<const kp_randomized_protocol::schedule> sched;

  // Per-step cache (begin_step hoist): the schedule position — block
  // lookup, stage index, step-within-stage, transmit probability — is a
  // pure function of the step number, identical for every node. on_step
  // only reads these, keeping the sharded phase-1 region race-free.
  const kp_block* block = nullptr;
  std::int64_t in_block = 0;
  std::int64_t stage_index = 0;
  std::int64_t stage_start_step = 0;
  bool universal_step = false;
  double p = 0.0;

  struct state {
    node_id label = 0;
    std::int64_t informed_step = -1;
    bool informed = false;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    s->informed = (label == 0);
    s->informed_step = -1;
  }

  // radiocast-analyze: hot-path-begin -- the per-step hooks, called for
  // every awake node (on_step) or every step (begin_step).
  void begin_step(std::int64_t step) {
    const std::int64_t pos = step % sched->total_length;
    block = &sched->block_at(pos);
    in_block = pos - block->start;
    if (in_block == 0) return;  // source step: nothing below is read
    stage_index = (in_block - 1) / block->stage_len;
    const std::int64_t within = (in_block - 1) % block->stage_len;
    stage_start_step = step - within;
    universal_step = within >= block->geometric_steps;
    if (!universal_step) {
      p = std::ldexp(1.0, -static_cast<int>(within));  // 1/2ˡ
    } else {
      p = block->seq.probability_at(stage_index + 1);  // p_i, 1-based
    }
  }

  std::optional<message> on_step(state* s, const node_context& ctx) const {
    if (!s->informed) return std::nullopt;
    if (in_block == 0) {
      // "the source transmits" — the first step of each block.
      if (s->label == 0) {
        if (ctx.metrics != nullptr) {
          ctx.metrics->counter_at(kTxSourceStep).add();
        }
        return payload(s);
      }
      return std::nullopt;
    }
    // A node performs Stage(D, i) iff it received the source message before
    // the stage began (paper: a node informed during stage i first
    // transmits in stage i+1).
    if (s->informed_step >= stage_start_step) return std::nullopt;
    if (ctx.gen->bernoulli(p)) {
      if (ctx.metrics != nullptr) {
        // Phase markers: which doubling block (log D guess) is live, how
        // deep into its stage schedule we are, and whether the transmit
        // came from the geometric cascade or the Lemma 1 universal step.
        ctx.metrics->gauge_at(kBlockLogD).set(block->log_d);
        ctx.metrics->gauge_at(kStage).set(stage_index);
        ctx.metrics->counter_at(universal_step ? kTxUniversal : kTxGeometric)
            .add();
      }
      return payload(s);
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context& ctx, const message&) const {
    if (!s->informed) {
      s->informed = true;
      s->informed_step = ctx.step;
    }
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }

  // Amnesia reboot: only the informed flag and its timestamp are volatile.
  void on_restart(state* s, const node_context&) const {
    s->informed = (s->label == 0);
    s->informed_step = -1;
  }

 private:
  static message payload(const state* s) {
    return message{kKpPayload, s->label, 0, 0, 0};
  }
  // radiocast-analyze: hot-path-end
};

kp_randomized_protocol::kp_randomized_protocol(node_id r, kp_options options)
    : r_(r), options_(options) {
  RC_REQUIRE(r >= 1);
  RC_REQUIRE(options.stage_budget >= 1);
  const int log_r = ilog2_ceil(static_cast<std::uint64_t>(r));
  RC_REQUIRE(log_r >= 1);

  if (options_.known_d > 0 && options_.paper_bgi_threshold) {
    const double threshold =
        32.0 * std::pow(static_cast<double>(r), 2.0 / 3.0);
    if (static_cast<double>(options_.known_d) <= threshold) {
      use_bgi_fallback_ = true;
      return;
    }
  }

  auto sched = std::make_shared<schedule>();
  sched->log_r = log_r;
  if (options_.known_d > 0) {
    const int log_d =
        std::min(log_r, ilog2_ceil(static_cast<std::uint64_t>(
                            options_.known_d)));
    sched->blocks.push_back(make_block(log_r, log_d, options_.stage_budget,
                                       options_.ablate_universal_step, 0));
  } else {
    std::int64_t start = 0;
    for (int i = 1; i <= log_r; ++i) {
      sched->blocks.push_back(make_block(log_r, i, options_.stage_budget,
                                         options_.ablate_universal_step,
                                         start));
      start += sched->blocks.back().length;
    }
  }
  sched->total_length =
      sched->blocks.back().start + sched->blocks.back().length;
  schedule_ = std::move(sched);
}

kp_randomized_protocol::~kp_randomized_protocol() = default;

std::string kp_randomized_protocol::name() const {
  if (use_bgi_fallback_) return "kp-optimal(bgi-fallback)";
  std::string n = options_.known_d > 0 ? "kp-randomized(D=" +
                                             std::to_string(options_.known_d) +
                                             ")"
                                       : "kp-optimal(doubling)";
  if (options_.ablate_universal_step) n += "[ablated]";
  return n;
}

std::int64_t kp_randomized_protocol::schedule_period() const {
  if (use_bgi_fallback_) return 0;
  return schedule_->total_length;
}

kp_soa_traits kp_randomized_protocol::traits(node_id r) const {
  RC_REQUIRE_MSG(r <= r_,
                 "kp_randomized_protocol was built for a smaller label bound");
  RC_CHECK(!use_bgi_fallback_);  // the fallback runs Decay's traits
  kp_soa_traits t;
  t.sched = schedule_;
  return t;
}

const soa_entry* kp_randomized_protocol::soa_runner() const {
  // The BGI-fallback regime runs Decay, so its entries are Decay's.
  if (use_bgi_fallback_) return decay_protocol().soa_runner();
  return &soa_entry_for<&kp_randomized_protocol::traits>;
}

}  // namespace radiocast
