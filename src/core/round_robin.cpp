#include "core/round_robin.h"

#include "sim/soa_engine.h"
#include "util/math.h"

namespace radiocast {

namespace {

constexpr message_kind kRoundRobinPayload = 1;

class round_robin_node final : public protocol_node {
 public:
  round_robin_node(node_id label, const protocol_params& params)
      : label_(label), modulus_(params.r + 1), informed_(label == 0) {}

  std::optional<message> on_step(const node_context& ctx) override {
    if (!informed_) return std::nullopt;
    if (ctx.step % modulus_ == label_) {
      return message{kRoundRobinPayload, label_, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(const node_context&, const message&) override {
    informed_ = true;
  }

  bool informed() const override { return informed_; }

  void on_restart(const node_context&) override {
    informed_ = (label_ == 0);  // the only volatile state
  }

 private:
  node_id label_;
  std::int64_t modulus_;
  bool informed_;
};

// SoA mirror of round_robin_node (sim/soa_engine.h traits).
struct round_robin_soa_traits {
  std::int64_t modulus = 1;  // shared config: r + 1, set by the entry

  // Per-step cache (begin_step hoist): the schedule slot is the same for
  // every node, so the division happens once per step, not per node.
  std::int64_t step_slot = 0;

  struct state {
    node_id label = 0;
    bool informed = false;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    s->informed = (label == 0);
  }

  void begin_step(std::int64_t step) { step_slot = step % modulus; }

  std::optional<message> on_step(state* s, const node_context&) const {
    if (!s->informed) return std::nullopt;
    if (step_slot == s->label) {
      return message{kRoundRobinPayload, s->label, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }

  // Calendar hint (sim/protocol.h SLEEP CONTRACT): an informed node's next
  // slot, step ≡ label (mod r + 1); an uninformed one waits for a message.
  std::int64_t next_poll(const state& s, std::int64_t step) const {
    if (!s.informed) return kWakeOnReceive;
    return next_residue(step + 1, s.label, modulus);
  }

  void on_restart(state* s, const node_context&) const {
    s->informed = (s->label == 0);  // the only volatile state
  }
};

run_result round_robin_soa_entry(const graph& g, const protocol&, node_id r,
                                 const run_options& opts) {
  round_robin_soa_traits traits;
  traits.modulus = r + 1;
  return run_broadcast_soa(g, traits, r, opts);
}

}  // namespace

std::unique_ptr<protocol_node> round_robin_protocol::make_node(
    node_id label, const protocol_params& params) const {
  return std::make_unique<round_robin_node>(label, params);
}

soa_entry round_robin_protocol::soa_runner() const {
  return &round_robin_soa_entry;
}

}  // namespace radiocast
