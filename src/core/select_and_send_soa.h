// The Select-and-Send node state machine (paper §4.2) as flat POD state and
// free functions, shared between two traits: select_and_send's own
// (core/select_and_send.cpp) and interleaved(rr+sas), which runs this exact
// machine on its odd-step subsequence with a null metrics registry.
#pragma once

#include <cstdint>
#include <optional>

#include "core/echo.h"
#include "obs/metrics.h"
#include "sim/message.h"

namespace radiocast::sas_proto {

// Message kinds (see core/echo.h for the order/reply payload layout).
constexpr message_kind kAnnounce = 1;   // source's step-0 announcement
constexpr message_kind kPresence = 2;   // neighbor i replies in step 2i
constexpr message_kind kStopToken = 3;  // a = label receiving the token
constexpr message_kind kOrder = 4;      // echo order
constexpr message_kind kReply = 5;      // echo reply
constexpr message_kind kToken = 6;      // a = label receiving the token

constexpr selection_kinds kKinds{kOrder, kReply};

// DFS metrics (obs/metrics.h handles, resolved once per registry).
inline const obs::metric_key kFirstVisits("sas.first_visits");
inline const obs::metric_key kTokenHops("sas.token_hops");
inline const obs::metric_key kSelections("sas.selections");
inline const obs::metric_key kSubtreesCompleted("sas.subtrees_completed");
inline const obs::metric_key kSegmentsPerSelection(
    "sas.segments_per_selection");

/// Flat per-node Select-and-Send state (56 bytes), with the echo queue and
/// the selection initiator embedded as POD (core/echo.h).
struct sas_soa_state {
  node_id label = -1;
  node_id parent = -1;
  node_id helper = -1;
  soa_pending pending;
  soa_selection sel;
  bool informed = false;
  bool visited = false;
  bool halted = false;
  bool driving = false;
  bool awaiting_presence = false;
};

// radiocast-analyze: hot-path-begin -- the per-node hooks both traits
// forward to (init and restart included: they run on every reboot).
inline void sas_soa_init(sas_soa_state* s, node_id label) {
  *s = sas_soa_state{};
  s->label = label;
  if (label == 0) {
    s->informed = true;
    s->visited = true;
  }
}

/// Amnesia reboot: back to the initial state. A rebooted token holder
/// orphans the traversal — the run may stall, which is exactly the
/// brittleness the resilience bench measures.
inline void sas_soa_restart(sas_soa_state* s) { sas_soa_init(s, s->label); }

/// The token arrives (a first visit, or a child returning it).
inline void sas_soa_take_token(sas_soa_state* s, node_id from, node_id r,
                               obs::metrics_registry* metrics) {
  if (!s->visited) {
    s->visited = true;
    s->parent = from;
    s->helper = from;
    if (metrics != nullptr) {
      metrics->counter_at(kFirstVisits).add();
    }
  }
  if (metrics != nullptr) {
    // Phase marker: every DFS token hop (forward passes and returns).
    metrics->counter_at(kTokenHops).add();
  }
  // (visited && token addressed to us) ⇒ a child returned the token:
  // resume the DFS with a fresh probe either way.
  s->driving = true;
  s->pending.clear();
  sel_init(&s->sel, r);
}

/// The queued transmission due at `step`, if any: reconstructs the message
/// from the structural kind and the node's state (the contents are pure
/// functions of both — see soa_pending in core/echo.h).
inline std::optional<message> sas_soa_take_pending(sas_soa_state* s,
                                                   std::int64_t step) {
  switch (s->pending.take(step)) {
    case 1:
      if (s->pending.one_kind == kPresence) {
        return message{kPresence, s->label, 0, 0, 0};
      }
      // kStopToken: a = the selected helper's label (stored when the
      // source heard the first presence reply).
      return message{kStopToken, 0, s->helper, 0, 0};
    case 2:
      return message{kReply, s->label, 0, 0, 0};
    default:
      return std::nullopt;
  }
}

/// The token holder's step: advance the selection; on success pass the
/// token to the selected neighbor, on S = ∅ return it to the parent.
inline std::optional<message> sas_soa_drive(sas_soa_state* s,
                                            std::int64_t step, node_id r,
                                            obs::metrics_registry* metrics) {
  std::optional<message> out =
      sel_on_step(&s->sel, kKinds, s->helper, r, metrics);
  (void)step;
  if (!sel_finished(s->sel)) return out;
  s->driving = false;
  if (metrics != nullptr) {
    metrics->histogram_at(kSegmentsPerSelection).observe(s->sel.segments);
  }
  if (sel_selected(s->sel)) {
    // Pass the token forward; we resume when it comes back.
    const node_id next = s->sel.heard1;
    if (metrics != nullptr) {
      metrics->counter_at(kSelections).add();
    }
    return message{kToken, s->label, next, 0, 0};
  }
  // S = ∅: the subtree below us is complete.
  s->halted = true;
  if (metrics != nullptr) {
    metrics->counter_at(kSubtreesCompleted).add();
  }
  if (s->label == 0) return std::nullopt;  // the traversal is over
  return message{kToken, s->label, s->parent, 0, 0};
}

/// The node's step: the source's opening, then queued duties, then the
/// token holder's selection.
inline std::optional<message> sas_soa_on_step(sas_soa_state* s,
                                              std::int64_t step, node_id r,
                                              obs::metrics_registry* metrics) {
  // The source opens the algorithm.
  if (s->label == 0 && step == 0) {
    s->awaiting_presence = true;
    return message{kAnnounce, 0, 0, 0, 0};
  }
  // Scheduled duties (presence replies, echo replies — including helper
  // replies owed after this node stopped).
  if (auto due = sas_soa_take_pending(s, step)) return due;
  if (s->driving) return sas_soa_drive(s, step, r, metrics);
  return std::nullopt;
}

/// Calendar hint (sim/protocol.h SLEEP CONTRACT) for sas_soa_on_step: the
/// source's opening at step 0, every step while driving a selection, else
/// the pending queue's next due step (kWakeOnReceive when empty).
inline std::int64_t sas_soa_next_poll(const sas_soa_state& s,
                                      std::int64_t step) {
  if (s.label == 0 && step < 0) return 0;
  if (s.driving) return step + 1;
  return s.pending.next_due(step);
}

/// A delivery: every message informs; the kind drives the DFS.
inline void sas_soa_on_receive(sas_soa_state* s, std::int64_t step, node_id r,
                               obs::metrics_registry* metrics,
                               const message& msg) {
  s->informed = true;  // every message functionally carries the source word
  switch (msg.kind) {
    case kAnnounce:
      // Reserve slot 2·label for our presence reply.
      s->pending.schedule_structural(
          step + 2 * static_cast<std::int64_t>(s->label), kPresence);
      break;
    case kPresence:
      if (s->label == 0 && s->awaiting_presence) {
        s->awaiting_presence = false;
        s->helper = msg.from;  // j: the source's known neighbor
        s->pending.schedule_structural(step + 1, kStopToken);
      }
      break;
    case kStopToken:
      s->pending.clear();  // cancels any outstanding presence reservation
      if (static_cast<node_id>(msg.a) == s->label) {
        sas_soa_take_token(s, msg.from, r, metrics);
      }
      break;
    case kToken:
      if (static_cast<node_id>(msg.a) == s->label) {
        sas_soa_take_token(s, msg.from, r, metrics);
      }
      break;
    case kOrder:
      if (s->driving) break;  // impossible in a clean run; ignore defensively
      soa_schedule_echo_replies(&s->pending, kKinds, msg, step, s->label,
                                /*is_member=*/!s->visited);
      break;
    case kReply:
      if (s->driving) sel_on_receive(&s->sel, kKinds, msg);
      break;
    default:
      break;
  }
}
// radiocast-analyze: hot-path-end

}  // namespace radiocast::sas_proto
