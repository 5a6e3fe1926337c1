#include "core/round_robin.h"

#include "sim/soa_engine.h"
#include "util/math.h"

namespace radiocast {

namespace {

constexpr message_kind kRoundRobinPayload = 1;

// The protocol (sim/soa_engine.h traits): make_node wraps it in a
// traits_node, soa_runner runs it on every step engine.
struct round_robin_soa_traits {
  std::int64_t modulus = 1;  // shared config: r + 1 (round_robin_traits)

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

round_robin_soa_traits round_robin_traits(node_id r) {
  round_robin_soa_traits traits;
  traits.modulus = static_cast<std::int64_t>(r) + 1;
  return traits;
}

}  // namespace

std::unique_ptr<protocol_node> round_robin_protocol::make_node(
    node_id label, const protocol_params& params) const {
  return make_traits_node(round_robin_traits(params.r), label, params);
}

soa_entry round_robin_protocol::soa_runner() const {
  return &soa_entry_for<round_robin_traits>;
}

}  // namespace radiocast
