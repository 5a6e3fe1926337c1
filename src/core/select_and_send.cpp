#include "core/select_and_send.h"

#include <optional>

#include "core/select_and_send_soa.h"
#include "sim/soa_engine.h"

namespace radiocast {

namespace {

// The protocol (sim/soa_engine.h traits). The state machine itself lives in
// core/select_and_send_soa.h — shared with the interleaved protocol's
// odd-step stream — so this traits struct is the thin adapter between the
// engine's hook signatures and the sas core.
struct sas_soa_traits {
  node_id r_bound = 1;  // shared config: the label bound r (sas_traits)

  struct state {
    sas_proto::sas_soa_state core;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    sas_proto::sas_soa_init(&s->core, label);
  }

  std::optional<message> on_step(state* s, const node_context& ctx) const {
    return sas_proto::sas_soa_on_step(&s->core, ctx.step, r_bound,
                                      ctx.metrics);
  }

  void on_receive(state* s, const node_context& ctx, const message& m) const {
    sas_proto::sas_soa_on_receive(&s->core, ctx.step, r_bound, ctx.metrics,
                                  m);
  }

  bool informed(const state& s) const { return s.core.informed; }
  bool halted(const state& s) const { return s.core.halted; }

  std::int64_t next_poll(const state& s, std::int64_t step) const {
    return sas_proto::sas_soa_next_poll(s.core, step);
  }

  void on_restart(state* s, const node_context&) const {
    sas_proto::sas_soa_restart(&s->core);
  }
};

sas_soa_traits sas_traits(node_id r) {
  sas_soa_traits traits;
  traits.r_bound = r;
  return traits;
}

}  // namespace

std::unique_ptr<protocol_node> select_and_send_protocol::make_node(
    node_id label, const protocol_params& params) const {
  return make_traits_node(sas_traits(params.r), label, params);
}

soa_entry select_and_send_protocol::soa_runner() const {
  return &soa_entry_for<sas_traits>;
}

}  // namespace radiocast
