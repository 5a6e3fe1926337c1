// Tests of the Echo / Binary-Selection machinery (core/echo.h), driven
// directly against a simulated responder set: the harness plays the radio
// channel for one initiator (soa_selection) whose neighbors are the members
// of S plus the helper w, each answering orders through
// soa_schedule_echo_replies and its own soa_pending queue, reproducing the
// exactly-one-transmitter delivery rule.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/echo.h"
#include "sim/protocol.h"
#include "util/math.h"
#include "util/rng.h"

namespace radiocast {
namespace {

constexpr selection_kinds kKinds{40, 41};

enum class selection_status { running, empty_set, selected };

selection_status status_of(const soa_selection& sel) {
  if (!sel_finished(sel)) return selection_status::running;
  return sel_selected(sel) ? selection_status::selected
                           : selection_status::empty_set;
}

/// Runs a selection to completion against responder set `s` (labels ≥ 1),
/// helper `w` (not in s). Returns the selection's result and reports the
/// number of steps consumed via *steps_out.
selection_status run_selection(const std::set<node_id>& s, node_id helper,
                               node_id bound, node_id* selected_out,
                               int* steps_out = nullptr,
                               int* segments_out = nullptr) {
  soa_selection sel;
  sel_init(&sel, bound);
  // step → the responders transmitting a reply in that step; each
  // responder is modelled separately to count transmitters per step.
  std::map<std::int64_t, std::vector<node_id>> tx_at;

  int steps = 0;
  for (std::int64_t step = 0; step < 100000; ++step) {
    ++steps;
    // Initiator acts.
    std::optional<message> order =
        sel_on_step(&sel, kKinds, helper, bound, nullptr);
    if (sel_finished(sel)) break;
    if (order) {
      order->from = -1;
      // Every member of S (and the helper) hears the order: the initiator
      // is their common neighbor and nothing else transmits this step.
      const auto respond = [&](node_id self, bool is_member) {
        soa_pending out;
        soa_schedule_echo_replies(&out, kKinds, *order, step, self,
                                  is_member);
        for (std::int64_t t = step + 1; t <= step + 2; ++t) {
          if (out.take(t) == 2) tx_at[t].push_back(self);
        }
      };
      for (node_id member : s) respond(member, /*is_member=*/true);
      respond(helper, /*is_member=*/false);
      continue;
    }
    // Channel: the initiator receives iff exactly one responder transmits.
    const auto it = tx_at.find(step);
    if (it != tx_at.end() && it->second.size() == 1) {
      sel_on_receive(&sel, kKinds,
                     message{kKinds.reply, it->second[0], 0, 0, 0, 0});
    }
  }
  if (steps_out != nullptr) *steps_out = steps;
  if (segments_out != nullptr) *segments_out = sel.segments;
  if (sel_selected(sel)) *selected_out = sel.heard1;
  return status_of(sel);
}

TEST(EchoTest, EmptySetDetected) {
  node_id selected = -1;
  EXPECT_EQ(run_selection({}, 7, 63, &selected),
            selection_status::empty_set);
}

TEST(EchoTest, SingletonSelectedImmediately) {
  node_id selected = -1;
  int segments = 0;
  EXPECT_EQ(run_selection({5}, 7, 63, &selected, nullptr, &segments),
            selection_status::selected);
  EXPECT_EQ(selected, 5);
  EXPECT_EQ(segments, 1);  // the full probe already finds it
}

TEST(EchoTest, PairSelectsExactlyOneMember) {
  node_id selected = -1;
  EXPECT_EQ(run_selection({3, 9}, 1, 63, &selected),
            selection_status::selected);
  EXPECT_TRUE(selected == 3 || selected == 9);
}

TEST(EchoTest, AdjacentLabelsAreSeparated) {
  node_id selected = -1;
  EXPECT_EQ(run_selection({12, 13}, 1, 63, &selected),
            selection_status::selected);
  EXPECT_TRUE(selected == 12 || selected == 13);
}

TEST(EchoTest, LargeContiguousSet) {
  std::set<node_id> s;
  for (node_id v = 17; v < 49; ++v) s.insert(v);
  node_id selected = -1;
  EXPECT_EQ(run_selection(s, 3, 63, &selected),
            selection_status::selected);
  EXPECT_TRUE(s.count(selected));
}

TEST(EchoTest, MaxLabelOnlyMember) {
  // S = {bound}: doubling must walk to the top and still find it.
  node_id selected = -1;
  EXPECT_EQ(run_selection({63}, 1, 63, &selected),
            selection_status::selected);
  EXPECT_EQ(selected, 63);
}

TEST(EchoTest, SegmentCountIsLogarithmic) {
  // For any S, the number of echo segments is O(log bound): full probe +
  // doubling (≤ log bound) + binary selection (≤ log bound).
  rng gen(77);
  const node_id bound = 1023;
  for (int trial = 0; trial < 40; ++trial) {
    std::set<node_id> s;
    const int size = 1 + static_cast<int>(gen.below(20));
    while (static_cast<int>(s.size()) < size) {
      s.insert(1 + static_cast<node_id>(gen.below(bound)));
    }
    node_id selected = -1;
    int segments = 0;
    ASSERT_EQ(run_selection(s, 0, bound, &selected, nullptr, &segments),
              selection_status::selected);
    ASSERT_TRUE(s.count(selected));
    EXPECT_LE(segments, 2 * ilog2_ceil(bound + 1) + 2)
        << "trial " << trial << " size " << size;
  }
}

// Exhaustive property sweep over small universes: every nonempty subset of
// {1..m} must yield a selected member; the empty set must be reported.
class EchoExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(EchoExhaustive, AllSubsetsSelectCorrectly) {
  const int m = GetParam();
  const node_id bound = static_cast<node_id>(m);
  for (unsigned mask = 0; mask < (1u << m); ++mask) {
    std::set<node_id> s;
    for (int b = 0; b < m; ++b) {
      if (mask & (1u << b)) s.insert(static_cast<node_id>(b + 1));
    }
    node_id selected = -1;
    const auto result = run_selection(s, 0, bound, &selected);
    if (s.empty()) {
      EXPECT_EQ(result, selection_status::empty_set);
    } else {
      ASSERT_EQ(result, selection_status::selected) << "mask=" << mask;
      EXPECT_TRUE(s.count(selected)) << "mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallUniverses, EchoExhaustive,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(EchoTest, SoaPendingTakeRemovesEntry) {
  soa_pending p;
  p.schedule_structural(5, 1);
  EXPECT_EQ(p.take(4), 0);
  EXPECT_EQ(p.take(5), 1);
  EXPECT_EQ(p.one_kind, 1);
  EXPECT_EQ(p.next_due(5), kWakeOnReceive);  // nothing left queued
  EXPECT_EQ(p.take(5), 0);
}

TEST(EchoTest, ScheduleEchoRepliesMemberAndHelper) {
  soa_pending out;
  const message order{kKinds.order, -1, 10, 20, 7, 0};  // range [10,20], w=7
  // member in range: replies at both echo steps.
  soa_schedule_echo_replies(&out, kKinds, order, 100, 15, true);
  EXPECT_EQ(out.take(101), 2);
  EXPECT_EQ(out.take(102), 2);
  EXPECT_EQ(out.next_due(102), kWakeOnReceive);
  // member out of range: silent.
  soa_schedule_echo_replies(&out, kKinds, order, 100, 25, true);
  EXPECT_EQ(out.next_due(100), kWakeOnReceive);
  // helper: second echo step only.
  soa_schedule_echo_replies(&out, kKinds, order, 100, 7, false);
  EXPECT_EQ(out.take(101), 0);
  EXPECT_EQ(out.take(102), 2);
}

TEST(EchoTest, SoaPendingNextDueIsTheCalendarHint) {
  // soa_pending::next_due is the sleep hint of every protocol built on the
  // queue: the earliest live entry, or the very next step while a stale
  // entry waits for take() to purge it, or kWakeOnReceive when empty.
  soa_pending q;
  EXPECT_EQ(q.next_due(5), kWakeOnReceive);
  q.schedule_structural(20, 2);
  EXPECT_EQ(q.next_due(5), 20);
  q.schedule_reply(7);
  q.schedule_reply(8);
  EXPECT_EQ(q.next_due(5), 7);
  EXPECT_EQ(q.take(7), 2);
  EXPECT_EQ(q.next_due(7), 8);
  EXPECT_EQ(q.next_due(9), 10);  // the reply at 8 went stale
  EXPECT_EQ(q.take(10), 0);      // … and is purged here
  EXPECT_EQ(q.next_due(10), 20);
  EXPECT_EQ(q.next_due(25), 26);  // a stale structural entry
  EXPECT_EQ(q.take(26), 0);
  EXPECT_EQ(q.next_due(26), kWakeOnReceive);
}

}  // namespace
}  // namespace radiocast
