#include "core/interleaved.h"

#include <algorithm>

#include "core/select_and_send_soa.h"
#include "sim/soa_engine.h"
#include "util/math.h"

namespace radiocast {

namespace {

constexpr message_kind kRoundRobinPayload = 100;

// The protocol (sim/soa_engine.h traits): soa_runner runs it on every
// step engine and builds its bank. The odd-step Select-and-Send stream
// reuses the shared sas_proto state machine
// (core/select_and_send_soa.h) with a null metrics registry. begin_step
// hoists the round-robin slot and virtual-substep arithmetic out of the
// per-node loop: they depend only on the global step, not on the node.
// on_receive reads the even_step hoist too.
struct interleaved_soa_traits {
  node_id r_bound = 1;        // shared config: the label bound r
  std::int64_t modulus = 1;   // round-robin modulus, r + 1
  // Per-step hoists, recomputed by begin_step.
  bool even_step = false;
  std::int64_t rr_slot = 0;   // (step / 2) % modulus on even steps
  std::int64_t sub_step = 0;  // (step − 1) / 2, the sas virtual step

  struct state {
    sas_proto::sas_soa_state sas;
    bool rr_informed = false;
  };

  void begin_step(std::int64_t step) {
    even_step = (step % 2 == 0);
    rr_slot = (step / 2) % modulus;
    sub_step = (step - 1) / 2;
  }

  void init(state* s, node_id label, const protocol_params&) const {
    sas_proto::sas_soa_init(&s->sas, label);
    s->rr_informed = (label == 0);
  }

  std::optional<message> on_step(state* s, const node_context&) const {
    if (even_step) {
      // Round-robin stream on virtual step ctx.step / 2.
      if ((s->rr_informed || s->sas.informed) && rr_slot == s->sas.label) {
        return message{kRoundRobinPayload, s->sas.label, 0, 0, 0, 0};
      }
      return std::nullopt;
    }
    return sas_proto::sas_soa_on_step(&s->sas, sub_step, r_bound, nullptr);
  }

  void on_receive(state* s, const node_context&, const message& m) const {
    s->rr_informed = true;
    if (!even_step) {
      sas_proto::sas_soa_on_receive(&s->sas, sub_step, r_bound, nullptr, m);
    }
    // Even-step (round-robin) receptions carry no protocol state beyond
    // the source word itself.
  }

  bool informed(const state& s) const {
    return s.rr_informed || s.sas.informed;
  }
  bool halted(const state& s) const { return s.sas.halted; }

  // Calendar hint (sim/protocol.h SLEEP CONTRACT): the earlier of the
  // round-robin slot on the even steps and the Select-and-Send wake on the
  // odd steps. For step ≥ −1, (step + 2) / 2 is the first virtual
  // round-robin step 2v > step, and (step + 1) / 2 − 1 is the last sas
  // sub-step at or before step (sub-step k runs at step 2k + 1).
  std::int64_t next_poll(const state& s, std::int64_t step) const {
    std::int64_t due = kWakeOnReceive;
    if (informed(s)) {
      due = 2 * next_residue((step + 2) / 2, s.sas.label, modulus);
    }
    const std::int64_t sub =
        sas_proto::sas_soa_next_poll(s.sas, (step + 1) / 2 - 1);
    if (sub != kWakeOnReceive) due = std::min(due, 2 * sub + 1);
    return due;
  }

  void on_restart(state* s, const node_context&) const {
    // Both interleaved streams lose their volatile state together.
    sas_proto::sas_soa_restart(&s->sas);
    s->rr_informed = (s->sas.label == 0);
  }
};

interleaved_soa_traits interleaved_traits(node_id r) {
  interleaved_soa_traits traits;
  traits.r_bound = r;
  traits.modulus = static_cast<std::int64_t>(r) + 1;
  return traits;
}

}  // namespace

const soa_entry* interleaved_protocol::soa_runner() const {
  return &soa_entry_for<interleaved_traits>;
}

}  // namespace radiocast
