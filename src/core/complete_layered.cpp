#include "core/complete_layered.h"

#include <algorithm>
#include <optional>

#include "core/echo.h"
#include "sim/soa_engine.h"

namespace radiocast {

namespace {

constexpr message_kind kAnnounce = 1;    // source's step-0 announcement
constexpr message_kind kPresence = 2;    // L₁ member i replies in step 2i
constexpr message_kind kStopSelect = 3;  // a = v₁'s label
constexpr message_kind kOrder = 4;       // echo order (a=lo, b=hi, c=helper)
constexpr message_kind kReply = 5;       // echo reply
constexpr message_kind kSelect = 6;      // a = next chain head's label
constexpr message_kind kStopLayer = 7;   // b = layer ordered to stop
constexpr message_kind kStopAll = 8;     // terminal stop (k = D reached)
// soa_pending tag, never on the air: the final stop-layer order, which
// goes out as kStopLayer with b = the sender's layer + 1 (see kStopAll).
constexpr message_kind kStopLastTag = 9;

constexpr selection_kinds kKinds{kOrder, kReply};

// The protocol (sim/soa_engine.h traits): soa_runner runs it on every
// step engine and builds its bank. The echo queue and the selection
// initiator are the POD forms in core/echo.h. The chain
// head's selection is not instrumented: every sel_* call passes a null
// metrics registry.
struct cl_soa_traits {
  node_id r_bound = 1;  // shared config: the label bound r (cl_traits)

  struct state {
    node_id label = -1;
    node_id helper = -1;
    node_id successor = -1;  // the head this node chose (source: v₁)
    std::int32_t layer = -1;
    std::int32_t drive_start = 0;
    soa_pending pending;
    soa_selection sel;
    bool informed = false;
    bool halted = false;
    bool head = false;
    bool awaiting_presence = false;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    *s = state{};
    s->label = label;
    if (label == 0) {
      s->informed = true;
      s->layer = 0;
    }
  }

  std::optional<message> on_step(state* s, const node_context& ctx) const {
    std::optional<message> out;
    if (s->label == 0 && ctx.step == 0) {
      s->awaiting_presence = true;
      out = message{kAnnounce, 0, 0, 0, 0, 0};
    } else if (auto due = take_pending(s, ctx.step)) {
      out = due;
    } else if (s->head && ctx.step >= s->drive_start) {
      out = drive(s, ctx.step);
    }
    if (out) out->d = s->layer;  // every message carries the sender's layer
    return out;
  }

  void on_receive(state* s, const node_context& ctx,
                  const message& msg) const {
    if (!s->informed) {
      s->informed = true;
      s->layer = static_cast<std::int32_t>(msg.d) + 1;
    }
    switch (msg.kind) {
      case kAnnounce:
        s->pending.schedule_structural(
            ctx.step + 2 * static_cast<std::int64_t>(s->label), kPresence);
        break;
      case kPresence:
        if (s->label == 0 && s->awaiting_presence) {
          s->awaiting_presence = false;
          // successor (v₁'s label) also rebuilds the kStopSelect message.
          s->successor = msg.from;
          s->pending.schedule_structural(ctx.step + 1, kStopSelect);
        }
        break;
      case kStopSelect:
        s->pending.clear();  // cancel outstanding presence reservations
        if (static_cast<node_id>(msg.a) == s->label) {
          become_head(s, msg.from, ctx.step + 1);
        }
        break;
      case kSelect:
        if (static_cast<node_id>(msg.a) == s->label) {
          // Start after the selector's stop-layer step.
          become_head(s, msg.from, ctx.step + 2);
        }
        break;
      case kOrder:
        if (s->head) break;  // a head never answers another head's order
        soa_schedule_echo_replies(
            &s->pending, kKinds, msg, ctx.step, s->label,
            /*is_member=*/s->layer == static_cast<std::int32_t>(msg.d) + 1);
        break;
      case kReply:
        if (s->head) sel_on_receive(&s->sel, kKinds, msg);
        break;
      case kStopLayer:
        if (s->layer == static_cast<std::int32_t>(msg.b)) s->halted = true;
        break;
      case kStopAll:
        s->halted = true;
        // The final head's neighbours are L_{D−1} only (no intra-layer
        // edges), so the rest of L_D never hears kStopAll. The node that
        // chose the final head sits in L_{D−1} and relays: it stops L_D
        // one step later.
        if (msg.from == s->successor) {
          s->pending.schedule_structural(ctx.step + 1, kStopLastTag);
        }
        break;
      default:
        break;
    }
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state& s) const { return s.halted; }

  // Calendar hint (sim/protocol.h SLEEP CONTRACT): the source's opening,
  // a head's drive from drive_start on, else the pending queue.
  std::int64_t next_poll(const state& s, std::int64_t step) const {
    if (s.label == 0 && step < 0) return 0;
    const std::int64_t due = s.pending.next_due(step);
    if (!s.head) return due;
    return std::min(due, std::max<std::int64_t>(step + 1, s.drive_start));
  }

  // Amnesia reboot: back to the initial state (the source knows its layer
  // a priori; everyone else relearns it on first contact).
  void on_restart(state* s, const node_context&) const {
    init(s, s->label, protocol_params{});
  }

 private:
  void become_head(state* s, node_id previous_head, std::int64_t start) const {
    s->head = true;
    s->helper = previous_head;
    s->drive_start = static_cast<std::int32_t>(start);
    s->pending.clear();
    sel_init(&s->sel, r_bound);
  }

  // The queued transmission due at `step`, if any: reconstructs the
  // message from the structural kind and the node's state.
  std::optional<message> take_pending(state* s, std::int64_t step) const {
    switch (s->pending.take(step)) {
      case 1:
        if (s->pending.one_kind == kPresence) {
          return message{kPresence, s->label, 0, 0, 0, 0};
        }
        if (s->pending.one_kind == kStopSelect) {
          return message{kStopSelect, 0, s->successor, 0, 0, 0};
        }
        if (s->pending.one_kind == kStopLastTag) {
          return message{kStopLayer, s->label, 0, s->layer + 1, 0, 0};
        }
        // kStopLayer: b = the layer below this head, fixed on first
        // contact and immutable until an (queue-clearing) restart.
        return message{kStopLayer, s->label, 0, s->layer - 1, 0, 0};
      case 2:
        return message{kReply, s->label, 0, 0, 0, 0};
      default:
        return std::nullopt;
    }
  }

  std::optional<message> drive(state* s, std::int64_t step) const {
    std::optional<message> out =
        sel_on_step(&s->sel, kKinds, s->helper, r_bound, nullptr);
    if (!sel_finished(s->sel)) return out;
    s->head = false;
    if (sel_selected(s->sel)) {
      const node_id next = s->sel.heard1;
      s->successor = next;
      // Select now; order L_{k−1} to stop one step later.
      s->pending.schedule_structural(step + 1, kStopLayer);
      return message{kSelect, s->label, next, 0, 0, 0};
    }
    // No next layer: k = D. Stop the neighbors and ourselves.
    s->halted = true;
    return message{kStopAll, s->label, 0, 0, 0, 0};
  }
};

cl_soa_traits cl_traits(node_id r) {
  cl_soa_traits traits;
  traits.r_bound = r;
  return traits;
}

}  // namespace

const soa_entry* complete_layered_protocol::soa_runner() const {
  return &soa_entry_for<cl_traits>;
}

}  // namespace radiocast
