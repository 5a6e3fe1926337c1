#include "core/complete_layered.h"

#include <algorithm>
#include <optional>

#include "core/echo.h"
#include "core/echo_soa.h"
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

class cl_node final : public protocol_node {
 public:
  cl_node(node_id label, const protocol_params& params)
      : label_(label), r_(params.r) {
    if (label_ == 0) {
      informed_ = true;
      layer_ = 0;
    }
  }

  std::optional<message> on_step(const node_context& ctx) override {
    std::optional<message> out;
    if (label_ == 0 && ctx.step == 0) {
      awaiting_presence_ = true;
      out = message{kAnnounce, 0, 0, 0, 0, 0};
    } else if (auto due = pending_.take(ctx.step)) {
      out = due;
    } else if (head_ && ctx.step >= drive_start_) {
      out = drive(ctx.step);
    }
    if (out) out->d = layer_;  // every message carries the sender's layer
    return out;
  }

  void on_receive(const node_context& ctx, const message& msg) override {
    if (!informed_) {
      informed_ = true;
      layer_ = static_cast<int>(msg.d) + 1;  // first contact fixes the layer
    }
    switch (msg.kind) {
      case kAnnounce:
        pending_.schedule(ctx.step + 2 * static_cast<std::int64_t>(label_),
                          message{kPresence, label_, 0, 0, 0, 0});
        break;
      case kPresence:
        if (label_ == 0 && awaiting_presence_) {
          awaiting_presence_ = false;
          successor_ = msg.from;
          pending_.schedule(ctx.step + 1,
                            message{kStopSelect, 0, msg.from, 0, 0, 0});
        }
        break;
      case kStopSelect:
        pending_.clear();  // cancel outstanding presence reservations
        if (static_cast<node_id>(msg.a) == label_) {
          become_head(msg.from, ctx.step + 1);
        }
        break;
      case kSelect:
        if (static_cast<node_id>(msg.a) == label_) {
          // Start after the selector's stop-layer step.
          become_head(msg.from, ctx.step + 2);
        }
        break;
      case kOrder:
        if (head_) break;  // a head never answers another head's order
        schedule_echo_replies(
            pending_, kKinds, msg, ctx.step, label_,
            /*is_member=*/layer_ == static_cast<int>(msg.d) + 1);
        break;
      case kReply:
        if (head_ && driver_) driver_->on_receive(msg);
        break;
      case kStopLayer:
        if (layer_ == static_cast<int>(msg.b)) halted_ = true;
        break;
      case kStopAll:
        halted_ = true;
        // The final head's neighbours are L_{D−1} only (no intra-layer
        // edges), so the rest of L_D never hears kStopAll. The node that
        // chose the final head sits in L_{D−1} and relays: it stops L_D
        // one step later.
        if (msg.from == successor_) {
          pending_.schedule(ctx.step + 1,
                            message{kStopLayer, label_, 0, layer_ + 1, 0, 0});
        }
        break;
      default:
        break;
    }
  }

  bool informed() const override { return informed_; }
  bool halted() const override { return halted_; }

  void on_restart(const node_context&) override {
    // Amnesia reboot: re-derive the constructed state (the source knows
    // its layer a priori; everyone else relearns it on first contact).
    informed_ = (label_ == 0);
    layer_ = (label_ == 0) ? 0 : -1;
    halted_ = false;
    head_ = false;
    awaiting_presence_ = false;
    helper_ = -1;
    successor_ = -1;
    drive_start_ = 0;
    pending_.clear();
    driver_.reset();
  }

 private:
  void become_head(node_id previous_head, std::int64_t start) {
    head_ = true;
    helper_ = previous_head;
    drive_start_ = start;
    pending_.clear();
    driver_.emplace(kKinds, helper_, r_);
  }

  std::optional<message> drive(std::int64_t step) {
    std::optional<message> out = driver_->on_step(step);
    if (!driver_->finished()) return out;
    head_ = false;
    if (driver_->result() == selection_driver::status::selected) {
      const node_id next = driver_->selected();
      driver_.reset();
      successor_ = next;
      // Select now; order L_{k−1} to stop one step later.
      pending_.schedule(step + 1,
                        message{kStopLayer, label_, 0, layer_ - 1, 0, 0});
      return message{kSelect, label_, next, 0, 0, 0};
    }
    // No next layer: k = D. Stop the neighbors and ourselves.
    driver_.reset();
    halted_ = true;
    return message{kStopAll, label_, 0, 0, 0, 0};
  }

  node_id label_;
  node_id r_;
  bool informed_ = false;
  bool halted_ = false;
  bool head_ = false;
  bool awaiting_presence_ = false;
  int layer_ = -1;
  node_id helper_ = -1;
  node_id successor_ = -1;  // the head this node chose (source: v₁)
  std::int64_t drive_start_ = 0;
  pending_tx pending_;
  std::optional<selection_driver> driver_;
};

// SoA mirror of cl_node (sim/soa_engine.h traits). pending_tx and
// selection_driver are replaced by their POD mirrors (core/echo_soa.h);
// every hook must stay behaviorally identical to the virtual node above —
// the three-way differential suite and the chaos engine-bit-identity
// invariant hold the pair together. The chain head's selection driver
// never carries a metrics registry (become_head above never calls
// set_metrics), so every sel_* call passes nullptr.
struct cl_soa_traits {
  node_id r_bound = 1;  // shared config: the label bound r, set by the entry

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
        // Relay to the rest of L_D (see cl_node).
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

  // Mirror of pending_tx::take + the original schedule sites: reconstructs
  // the due message from the structural kind and the node's state.
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

run_result cl_soa_entry(const graph& g, const protocol&, node_id r,
                        const run_options& opts) {
  cl_soa_traits traits;
  traits.r_bound = r;
  return run_broadcast_soa(g, traits, r, opts);
}

}  // namespace

std::unique_ptr<protocol_node> complete_layered_protocol::make_node(
    node_id label, const protocol_params& params) const {
  return std::make_unique<cl_node>(label, params);
}

soa_entry complete_layered_protocol::soa_runner() const {
  return &cl_soa_entry;
}

}  // namespace radiocast
