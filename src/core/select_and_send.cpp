#include "core/select_and_send.h"

#include <optional>

#include "core/echo.h"
#include "core/select_and_send_soa.h"
#include "obs/metrics.h"
#include "sim/soa_engine.h"

namespace radiocast {

namespace {

// Message kinds, shared with the SoA mirror (core/select_and_send_soa.h)
// so the two forms cannot drift apart; see core/echo.h for the order/reply
// payload layout.
constexpr message_kind kAnnounce = sas_proto::kAnnounce;
constexpr message_kind kPresence = sas_proto::kPresence;
constexpr message_kind kStopToken = sas_proto::kStopToken;
constexpr message_kind kOrder = sas_proto::kOrder;
constexpr message_kind kReply = sas_proto::kReply;
constexpr message_kind kToken = sas_proto::kToken;

constexpr selection_kinds kKinds = sas_proto::kKinds;

class sas_node final : public protocol_node {
 public:
  sas_node(node_id label, const protocol_params& params)
      : label_(label), r_(params.r) {
    if (label_ == 0) {
      informed_ = true;
      visited_ = true;
    }
  }

  std::optional<message> on_step(const node_context& ctx) override {
    // The source opens the algorithm.
    if (label_ == 0 && ctx.step == 0) {
      awaiting_presence_ = true;
      return message{kAnnounce, 0, 0, 0, 0};
    }
    // Scheduled duties (presence replies, echo replies — including helper
    // replies owed after this node stopped).
    if (auto due = pending_.take(ctx.step)) return due;
    if (driving_) return drive(ctx);
    return std::nullopt;
  }

  void on_receive(const node_context& ctx, const message& msg) override {
    informed_ = true;  // every message functionally carries the source word
    switch (msg.kind) {
      case kAnnounce:
        // Reserve slot 2·label for our presence reply.
        pending_.schedule(ctx.step + 2 * static_cast<std::int64_t>(label_),
                          message{kPresence, label_, 0, 0, 0});
        break;
      case kPresence:
        if (label_ == 0 && awaiting_presence_) {
          awaiting_presence_ = false;
          helper_ = msg.from;  // j: the source's known neighbor
          pending_.schedule(ctx.step + 1,
                            message{kStopToken, 0, msg.from, 0, 0});
        }
        break;
      case kStopToken:
        pending_.clear();  // cancels any outstanding presence reservation
        if (static_cast<node_id>(msg.a) == label_) take_token(ctx, msg.from);
        break;
      case kToken:
        if (static_cast<node_id>(msg.a) == label_) take_token(ctx, msg.from);
        break;
      case kOrder:
        if (driving_) break;  // impossible in a clean run; ignore defensively
        schedule_echo_replies(pending_, kKinds, msg, ctx.step, label_,
                              /*is_member=*/!visited_);
        break;
      case kReply:
        if (driving_ && driver_) driver_->on_receive(msg);
        break;
      default:
        break;
    }
  }

  bool informed() const override { return informed_; }
  bool halted() const override { return halted_; }

  void on_restart(const node_context&) override {
    // Amnesia reboot: every member below label_/r_ is volatile DFS state.
    // A rebooted token holder orphans the traversal — the run may stall,
    // which is exactly the brittleness the resilience bench measures.
    informed_ = visited_ = (label_ == 0);
    halted_ = false;
    driving_ = false;
    awaiting_presence_ = false;
    parent_ = -1;
    helper_ = -1;
    pending_.clear();
    driver_.reset();
  }

 private:
  void take_token(const node_context& ctx, node_id from) {
    if (!visited_) {
      visited_ = true;
      parent_ = from;
      helper_ = from;
      if (ctx.metrics != nullptr) {
        ctx.metrics->get_counter("sas.first_visits").add();
      }
    }
    if (ctx.metrics != nullptr) {
      // Phase marker: every DFS token hop (forward passes and returns).
      ctx.metrics->get_counter("sas.token_hops").add();
    }
    // (visited_ && token addressed to us) ⇒ a child returned the token:
    // resume the DFS with a fresh probe either way.
    driving_ = true;
    pending_.clear();
    driver_.emplace(kKinds, helper_, r_);
    driver_->set_metrics(ctx.metrics);
  }

  std::optional<message> drive(const node_context& ctx) {
    std::optional<message> out = driver_->on_step(ctx.step);
    if (!driver_->finished()) return out;
    driving_ = false;
    if (ctx.metrics != nullptr) {
      ctx.metrics->get_histogram("sas.segments_per_selection")
          .observe(driver_->segments_issued());
    }
    if (driver_->result() == selection_driver::status::selected) {
      // Pass the token forward; we resume when it comes back.
      const node_id next = driver_->selected();
      driver_.reset();
      if (ctx.metrics != nullptr) {
        ctx.metrics->get_counter("sas.selections").add();
      }
      return message{kToken, label_, next, 0, 0};
    }
    // S = ∅: the subtree below us is complete.
    driver_.reset();
    halted_ = true;
    if (ctx.metrics != nullptr) {
      ctx.metrics->get_counter("sas.subtrees_completed").add();
    }
    if (label_ == 0) return std::nullopt;  // the traversal is over
    return message{kToken, label_, parent_, 0, 0};
  }

  node_id label_;
  node_id r_;
  bool informed_ = false;
  bool visited_ = false;
  bool halted_ = false;
  bool driving_ = false;
  bool awaiting_presence_ = false;
  node_id parent_ = -1;
  node_id helper_ = -1;
  pending_tx pending_;
  std::optional<selection_driver> driver_;
};

// SoA mirror of sas_node (sim/soa_engine.h traits). The state machine
// itself lives in core/select_and_send_soa.h — shared with the interleaved
// protocol's odd-step stream — so this traits struct is the thin adapter
// between the engine's hook signatures and the sas core. Every hook must
// stay behaviorally identical to the virtual node above; the three-way
// differential suite and the chaos engine-bit-identity invariant hold the
// pair together.
struct sas_soa_traits {
  node_id r_bound = 1;  // shared config: the label bound r, set by the entry

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

run_result sas_soa_entry(const graph& g, const protocol&, node_id r,
                         const run_options& opts) {
  sas_soa_traits traits;
  traits.r_bound = r;
  return run_broadcast_soa(g, traits, r, opts);
}

}  // namespace

std::unique_ptr<protocol_node> select_and_send_protocol::make_node(
    node_id label, const protocol_params& params) const {
  return std::make_unique<sas_node>(label, params);
}

soa_entry select_and_send_protocol::soa_runner() const {
  return &sas_soa_entry;
}

}  // namespace radiocast
