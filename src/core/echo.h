// Procedure Echo and Algorithm Binary-Selection (paper, Section 4.1).
//
// Echo(w, A) lets a node v that knows one neighbor w ∉ A distinguish
// |A| ∈ {0, 1, ≥2} in two steps — simulating collision detection, which the
// radio model does not provide:
//   step 1: every node in A transmits its label;
//   step 2: every node in A ∪ {w} transmits its label.
// v hears step 1 only ⇒ |A| = 1 (and learns the unique label);
// v hears step 2 only ⇒ |A| = 0; v hears neither ⇒ |A| ≥ 2.
//
// Binary-Selection finds one element of a nonempty set S of neighbors in
// O(log m) three-step segments (order, echo-1, echo-2), descending ranges:
// on |R ∩ S| = 0 move to the next half-size segment, on ≥ 2 take the left
// half, on = 1 select.
//
// Both sides are flat POD state sized for the deterministic protocols'
// SoA per-node state (sim/soa_engine.h):
//   * soa_selection + sel_*: the initiator's full pipeline — a whole-set
//     probe, then doubling probes over [1, 2ᵏ], then Binary-Selection;
//   * soa_pending + soa_schedule_echo_replies: the responder side, a
//     future-transmission queue holding the echo replies an order obliges
//     plus the owning protocol's one structural entry.
//
// WHY ONE STRUCTURAL SLOT AND AN 8-BIT REPLY WINDOW ARE ENOUGH:
//
//   * Structural entries (presence reservations, stop/token notices,
//     stop-layer orders) are provably exclusive: a node schedules its
//     presence reply at most once per run (there is exactly one source
//     announcement), the source's stop notice is guarded by
//     awaiting_presence, a head's stop-layer order is scheduled only
//     after become_head cleared the queue, and Complete-Layered's final
//     stop relay only on hearing kStopAll, after the relaying node's own
//     entries fired and at least one step after its last helper reply
//     (kStopAll goes out on an evaluate step) — so at most ONE structural
//     entry is ever live, and it is always scheduled before any reply
//     entry (replies need a prior echo order). take() fires the
//     structural entry first when both fall on one step.
//   * Echo replies from one node are CONTENT-IDENTICAL ({reply_kind,
//     self}), so a step's reply only needs a presence bit, not a payload.
//     The radio model delivers at most one order per step, so replies land
//     at most 2 steps ahead — the 8-bit window never overflows — and
//     duplicate same-step replies collapse into one bit: a node transmits
//     at most once per step anyway.
//   * An entry fires only at its exact step. Stale entries (a reservation
//     whose step passed while the node was crashed, or a reply shadowed by
//     a same-step structural entry) can never fire, so take() purges them
//     instead of carrying them.
//
// Step fields are 32-bit to fit the engine's 64-byte state budget: the
// furthest schedule is step + 2·label + 2, so runs stay exact through
// step ≈ 2³¹ − 2·r — far past every configured max_steps.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>

#include "obs/metrics.h"
#include "sim/message.h"
#include "sim/protocol.h"
#include "util/assert.h"

namespace radiocast {

/// Message kinds the selection subprotocol uses, chosen by the owning
/// protocol so kind spaces never collide.
/// Order message layout: a = range lo, b = range hi, c = helper label.
/// Reply message layout: the transmitter's label rides in `from`.
struct selection_kinds {
  message_kind order = 0;
  message_kind reply = 0;
};

namespace soa_echo_detail {

// Echo metrics (obs/metrics.h handles, resolved once per registry).
inline const obs::metric_key kRecoveries("echo.recoveries");
// echo.segments{tag}, indexed by soa_selection::phase.
inline const obs::metric_key kSegments[] = {
    obs::metric_key("echo.segments", "full_probe"),
    obs::metric_key("echo.segments", "doubling"),
    obs::metric_key("echo.segments", "binary")};

}  // namespace soa_echo_detail

// radiocast-analyze: hot-path-begin -- the pending queue and the selection
// run inside the on_step/on_receive hooks of every echo-based protocol.

/// Future-transmission window (12 bytes): one structural entry (kind +
/// step) plus an 8-bit reply window anchored at reply_base (bit k set ⇔ a
/// reply is owed at step reply_base + k).
struct soa_pending {
  std::int32_t one_step = -1;    ///< structural entry's step; −1 = none
  std::int32_t reply_base = 0;   ///< step of reply bit 0
  std::uint8_t reply_mask = 0;   ///< bit k ⇒ reply owed at reply_base + k
  std::int8_t one_kind = 0;      ///< structural entry's message_kind

  void clear() {
    one_step = -1;
    reply_mask = 0;
  }

  /// Schedules the (unique — see header comment) structural entry.
  void schedule_structural(std::int64_t step, message_kind kind) {
    RC_CHECK_MSG(one_step == -1 || one_step < static_cast<std::int32_t>(step),
                 "soa_pending: overlapping structural schedules");
    one_step = static_cast<std::int32_t>(step);
    one_kind = static_cast<std::int8_t>(kind);
  }

  /// Schedules an echo reply for `step` (≤ 2 steps ahead).
  void schedule_reply(std::int64_t step) {
    const auto s = static_cast<std::int32_t>(step);
    if (reply_mask == 0) {
      reply_base = s;
      reply_mask = 1;
      return;
    }
    if (s < reply_base) {
      const std::int32_t shift = reply_base - s;
      RC_CHECK(shift < 8);
      reply_mask = static_cast<std::uint8_t>(reply_mask << shift);
      reply_base = s;
      reply_mask |= 1;
      return;
    }
    const std::int32_t bit = s - reply_base;
    RC_CHECK_MSG(bit < 8, "soa_pending: reply scheduled past the window");
    reply_mask |= static_cast<std::uint8_t>(std::uint8_t{1} << bit);
  }

  /// What fires at `step`: 0 = nothing, 1 = the structural entry (caller
  /// reconstructs the message from one_kind + its own state), 2 = a reply.
  /// Purges entries whose step has passed (an entry fires only at its exact
  /// step, so they never can).
  int take(std::int64_t step) {
    const auto s = static_cast<std::int32_t>(step);
    if (reply_mask != 0 && reply_base < s) {
      const std::int32_t shift = s - reply_base;
      reply_mask = shift >= 8
                       ? std::uint8_t{0}
                       : static_cast<std::uint8_t>(reply_mask >> shift);
      reply_base = s;
    }
    if (one_step != -1 && one_step < s) one_step = -1;
    if (one_step == s) {
      one_step = -1;
      return 1;
    }
    if (reply_mask != 0 && reply_base == s && (reply_mask & 1) != 0) {
      reply_mask = static_cast<std::uint8_t>(reply_mask & ~std::uint8_t{1});
      return 2;
    }
    return 0;
  }

  /// The earliest step after `after` at which take() does anything: the
  /// earliest live entry, or after + 1 while a stale entry (step ≤ after)
  /// remains — that take() purges it before a later schedule_reply could
  /// trip the window check. kWakeOnReceive when nothing is queued. This is
  /// the calendar hint (sim/protocol.h SLEEP CONTRACT) of every protocol
  /// built on this queue.
  std::int64_t next_due(std::int64_t after) const {
    std::int64_t due = kWakeOnReceive;
    if (one_step != -1) due = one_step;
    if (reply_mask != 0) {
      due = std::min<std::int64_t>(
          due, reply_base + std::countr_zero(reply_mask));
    }
    return due <= after ? after + 1 : due;
  }
};

/// Responder side: given an order received at `step` by a node with label
/// `self`, schedules the Echo replies it owes as window bits.
/// * A member of the probed set A (the caller decides membership) replies in
///   both echo steps (A transmits in step 1, A ∪ {w} in step 2).
/// * The helper w replies in the second echo step only.
inline void soa_schedule_echo_replies(soa_pending* out,
                                      const selection_kinds& kinds,
                                      const message& order, std::int64_t step,
                                      node_id self, bool is_member) {
  RC_REQUIRE(order.kind == kinds.order);
  const auto lo = static_cast<node_id>(order.a);
  const auto hi = static_cast<node_id>(order.b);
  const auto helper = static_cast<node_id>(order.c);
  if (is_member && self >= lo && self <= hi) {
    out->schedule_reply(step + 1);
    out->schedule_reply(step + 2);
  } else if (self == helper) {
    out->schedule_reply(step + 2);
  }
}

/// Initiator side (24 bytes): probes the responder set S (whose members are
/// this node's neighbors) and either selects exactly one of them or reports
/// S = ∅ — deterministic, O(log label_bound) three-step echo segments. The
/// selected responder label is heard1 once status == selected. `segments`
/// counts issued segments (O(log label_bound) per selection).
///
/// Recoveries: a reply pattern that is impossible on a reliable channel
/// (both echo steps heard, a lone step-2 reply from a non-helper, or a
/// range walk past the label bound) restarts the probe from scratch and
/// bumps the `echo.recoveries` counter. It never happens in the fault-free
/// model; under fault injection (src/fault/) dropped replies can produce
/// such patterns, and restarting keeps the selection correct at the price
/// of extra segments. The asymmetry that makes this safe: faults only erase
/// deliveries, so a heard reply is always genuine — errors can only bias an
/// echo toward the "≥2" outcome, never toward a false "unique" or false
/// "empty".
struct soa_selection {
  node_id lo = 0, hi = 0;
  node_id heard1 = -1, heard2 = -1;  ///< −1 = nothing heard
  std::int32_t segments = 0;
  std::uint8_t status = 0;      ///< 0 running, 1 empty_set, 2 selected
  std::uint8_t phase = 0;       ///< 0 full_probe, 1 doubling, 2 binary
  std::uint8_t sub = 0;         ///< 0 send_order, 1 listen1, 2 listen2,
                                ///< 3 evaluate
  std::uint8_t doubling_k = 0;
};

namespace soa_echo_detail {

inline constexpr std::uint8_t kRunning = 0, kEmptySet = 1, kSelected = 2;
inline constexpr std::uint8_t kFullProbe = 0, kDoubling = 1, kBinary = 2;
inline constexpr std::uint8_t kSendOrder = 0, kListen1 = 1, kListen2 = 2,
                              kEvaluate = 3;
inline constexpr int kOutcomeEmpty = 0, kOutcomeUnique = 1, kOutcomeMulti = 2;

inline void sel_recover(soa_selection* s, node_id bound,
                        obs::metrics_registry* metrics) {
  if (metrics != nullptr) {
    metrics->counter_at(kRecoveries).add();
  }
  s->phase = kFullProbe;
  s->doubling_k = 0;
  s->lo = 0;
  s->hi = bound;
}

inline void sel_note_segment(soa_selection* s,
                             obs::metrics_registry* metrics) {
  ++s->segments;
  if (metrics != nullptr) metrics->counter_at(kSegments[s->phase]).add();
}

// One echo's outcome moves the probe: full probe → doubling over [1, 2ᵏ]
// → Binary-Selection, or a result.
inline void sel_advance(soa_selection* s, int outcome, node_id bound,
                        obs::metrics_registry* metrics) {
  switch (s->phase) {
    case kFullProbe:
      switch (outcome) {
        case kOutcomeEmpty:
          s->status = kEmptySet;
          return;
        case kOutcomeUnique:
          s->status = kSelected;  // selected label = heard1
          return;
        default:
          s->phase = kDoubling;
          s->doubling_k = 1;
          s->lo = 1;
          s->hi = 2;
          return;
      }
    case kDoubling:
      switch (outcome) {
        case kOutcomeEmpty: {
          ++s->doubling_k;
          if ((std::int64_t{1} << (s->doubling_k - 1)) > bound) {
            // Doubling ran past the label bound with a nonempty S:
            // impossible reliably, a dropped-reply artifact under faults.
            sel_recover(s, bound, metrics);
            return;
          }
          s->lo = 1;
          s->hi = static_cast<node_id>(
              std::min<std::int64_t>(std::int64_t{1} << s->doubling_k,
                                     static_cast<std::int64_t>(bound)));
          return;
        }
        case kOutcomeUnique:
          s->status = kSelected;
          return;
        default: {
          // Binary-Selection over [1, m], m = 2ᵏ: first range {1, …, m/2}.
          const std::int64_t m = std::int64_t{1} << s->doubling_k;
          s->phase = kBinary;
          s->lo = 1;
          s->hi = static_cast<node_id>(std::max<std::int64_t>(1, m / 2));
          return;
        }
      }
    default:
      switch (outcome) {
        case kOutcomeUnique:
          s->status = kSelected;
          return;
        case kOutcomeEmpty: {
          // R = {x,…,y} empty of S: move to the next segment; the paper
          // halves the segment size each move (floor at 1).
          const node_id size = s->hi - s->lo + 1;
          const node_id next = std::max<node_id>(1, size / 2);
          s->lo = s->hi + 1;
          s->hi = s->hi + next;
          if (s->lo > bound + 1) sel_recover(s, bound, metrics);
          return;
        }
        default: {
          // ≥ 2 elements in R: descend into the left half. "≥2 in a
          // single-label range" is impossible reliably — recover.
          const node_id size = s->hi - s->lo + 1;
          if (size < 2) {
            sel_recover(s, bound, metrics);
            return;
          }
          s->hi = s->lo + size / 2 - 1;
          return;
        }
      }
  }
}

}  // namespace soa_echo_detail

/// Starts a selection. `bound` is the label bound r the node knows
/// (responder labels are ≤ r); the full probe covers the whole label space.
inline void sel_init(soa_selection* s, node_id bound) {
  RC_REQUIRE(bound >= 1);
  *s = soa_selection{};
  s->lo = 0;
  s->hi = bound;
}

/// Advances one step. Returns the order to transmit, or nullopt when
/// listening (or when just finished — check sel_finished).
inline std::optional<message> sel_on_step(soa_selection* s,
                                          const selection_kinds& kinds,
                                          node_id helper, node_id bound,
                                          obs::metrics_registry* metrics) {
  using namespace soa_echo_detail;
  RC_REQUIRE(s->status == kRunning);
  switch (s->sub) {
    case kSendOrder:
      s->heard1 = -1;
      s->heard2 = -1;
      s->sub = kListen1;
      sel_note_segment(s, metrics);
      return message{kinds.order, -1, s->lo, s->hi, helper};
    case kListen1:
      s->sub = kListen2;
      return std::nullopt;
    case kListen2:
      s->sub = kEvaluate;
      return std::nullopt;
    default: {
      // Reply patterns impossible on a reliable channel restart the probe
      // (see Recoveries above).
      if (s->heard1 != -1 && s->heard2 == -1) {
        sel_advance(s, kOutcomeUnique, bound, metrics);
      } else if (s->heard1 == -1 && s->heard2 != -1 && s->heard2 == helper) {
        sel_advance(s, kOutcomeEmpty, bound, metrics);
      } else if (s->heard1 == -1 && s->heard2 == -1) {
        sel_advance(s, kOutcomeMulti, bound, metrics);
      } else {
        sel_recover(s, bound, metrics);
      }
      if (s->status != kRunning) return std::nullopt;
      // Immediately issue the next order in this same step.
      s->heard1 = -1;
      s->heard2 = -1;
      s->sub = kListen1;
      sel_note_segment(s, metrics);
      return message{kinds.order, -1, s->lo, s->hi, helper};
    }
  }
}

/// Feed every reply the owning node receives while the selection runs:
/// step-1 replies land in heard1, step-2 replies in heard2.
inline void sel_on_receive(soa_selection* s, const selection_kinds& kinds,
                           const message& msg) {
  using namespace soa_echo_detail;
  if (msg.kind != kinds.reply) return;
  if (s->sub == kListen2) {
    s->heard1 = msg.from;
  } else if (s->sub == kEvaluate) {
    s->heard2 = msg.from;
  }
}

/// True once the selection is no longer running.
inline bool sel_finished(const soa_selection& s) {
  return s.status != soa_echo_detail::kRunning;
}

inline bool sel_selected(const soa_selection& s) {
  return s.status == soa_echo_detail::kSelected;
}
// radiocast-analyze: hot-path-end

}  // namespace radiocast
