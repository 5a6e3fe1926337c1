// Tests of the radio simulator's semantics: the collision model (receive
// iff exactly one transmitting in-neighbor, collision ≡ silence), the
// no-spontaneous-transmission rule, directed operation, tracing, and the
// run-loop bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dfs_known.h"
#include "core/runner.h"
#include "fault/fault_model.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/soa_engine.h"
#include "sim/trace.h"
#include "util/math.h"

namespace radiocast {
namespace {

// A scripted protocol for exercising the simulator: each node transmits at
// exactly the steps listed in its script and records everything it receives.
// Reception logs are exposed through a shared observer (the protocol is a
// test fixture, not a real broadcasting algorithm); on_receive runs
// serially on every engine, so the traits may write it.
struct script_observer {
  std::map<node_id, std::vector<std::pair<std::int64_t, node_id>>> received;
};

using script_map = std::map<node_id, std::vector<std::int64_t>>;

struct scripted_soa_traits {
  const script_map* scripts = nullptr;
  script_observer* observer = nullptr;

  struct state {
    node_id label = 0;
    bool informed = false;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    s->informed = label == 0;
  }
  std::optional<message> on_step(state* s, const node_context& ctx) const {
    const auto it = scripts->find(s->label);
    if (it == scripts->end()) return std::nullopt;
    for (const std::int64_t t : it->second) {
      if (t == ctx.step) return message{1, s->label, ctx.step, 0, 0, 0};
    }
    return std::nullopt;
  }
  void on_receive(state* s, const node_context& ctx,
                  const message& msg) const {
    s->informed = true;
    observer->received[s->label].emplace_back(ctx.step, msg.from);
  }
  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }
  void on_restart(state* s, const node_context&) const {
    s->informed = s->label == 0;
  }
};

class scripted_protocol final : public protocol {
 public:
  scripted_protocol(script_map scripts, script_observer* observer)
      : scripts_(std::move(scripts)), observer_(observer) {}

  std::string name() const override { return "scripted"; }
  bool deterministic() const override { return true; }

  const soa_entry* soa_runner() const override {
    return &soa_entry_for<&scripted_protocol::traits>;
  }

 private:
  scripted_soa_traits traits(node_id) const { return {&scripts_, observer_}; }

  script_map scripts_;
  script_observer* observer_;
};

run_options capped(std::int64_t max_steps) {
  run_options o;
  o.max_steps = max_steps;
  return o;
}

/// Like capped(), but runs the full step budget even after everyone is
/// informed (scripted nodes never halt) — for post-wake collision checks.
run_options capped_full(std::int64_t max_steps) {
  run_options o = capped(max_steps);
  o.stop = stop_condition::all_halted;
  return o;
}

// ---------- collision semantics ----------

TEST(SimTest, SingleTransmitterIsReceived) {
  // star: 0 is adjacent to 1, 2, 3.
  graph g = make_star(4);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  run_broadcast(g, proto, capped(2));
  for (node_id v : {1, 2, 3}) {
    ASSERT_EQ(obs.received[v].size(), 1u) << "node " << v;
    EXPECT_EQ(obs.received[v][0], (std::pair<std::int64_t, node_id>{0, 0}));
  }
}

TEST(SimTest, TwoTransmittersCollideIntoSilence) {
  // path 1 - 0 - 2: both 1 and 2 transmit at step 1 → 0 hears nothing.
  graph g = graph::undirected(3);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  g.finalize();
  script_observer obs;
  // step 0: source wakes 1 and 2; step 1: both reply simultaneously.
  scripted_protocol proto({{0, {0}}, {1, {1}}, {2, {1}}}, &obs);
  const run_result r = run_broadcast(g, proto, capped_full(3));
  EXPECT_TRUE(obs.received[0].empty());  // collision ≡ silence
  EXPECT_GE(r.collisions, 1);
}

TEST(SimTest, CollisionOnlyAffectsCommonNeighbor) {
  //   0 - 1, 0 - 2, 2 - 3 : step 0 source wakes 1, 2; step 1 node 2 relays
  // to 3; step 2 nodes 1 and 3 transmit together. Node 0 (neighbors 1, 2)
  // hears only 1; node 2 (neighbors 0, 3) hears only 3 — no collision
  // anywhere despite two simultaneous transmitters.
  graph g = graph::undirected(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.finalize();
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {2, {1}}, {1, {2}}, {3, {2}}}, &obs);
  const run_result r = run_broadcast(g, proto, capped_full(4));
  ASSERT_EQ(obs.received[0].size(), 2u);
  EXPECT_EQ(obs.received[0][0].second, 2);  // the step-1 relay
  EXPECT_EQ(obs.received[0][1].second, 1);  // step 2: only neighbor 1
  ASSERT_EQ(obs.received[2].size(), 2u);    // from 0 at step 0, from 3 at 2
  EXPECT_EQ(obs.received[2][1].second, 3);
  EXPECT_EQ(r.collisions, 0);
}

TEST(SimTest, TransmitterCannotReceiveSimultaneously) {
  // 0 - 1 both transmit at step 0... node 1 cannot transmit spontaneously,
  // so use: step 0 source, step 1 both 0 and 1 transmit → neither receives.
  graph g = make_path(2);
  script_observer obs;
  scripted_protocol proto({{0, {0, 1}}, {1, {1}}}, &obs);
  run_broadcast(g, proto, capped_full(3));
  ASSERT_EQ(obs.received[1].size(), 1u);  // only the step-0 wake
  EXPECT_TRUE(obs.received[0].empty());
}

TEST(SimTest, ThreeTransmittersStillSilence) {
  graph g = make_star(5);  // 0 center
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {1, {1}}, {2, {1}}, {3, {1}}}, &obs);
  run_broadcast(g, proto, capped_full(3));
  EXPECT_TRUE(obs.received[0].empty());
  // Node 4 is a leaf: hears nothing at step 1 (its only neighbor 0 silent).
  ASSERT_EQ(obs.received[4].size(), 1u);
}

// ---------- model rules ----------

TEST(SimTest, SpontaneousTransmissionIsRejected) {
  graph g = make_path(3);
  script_observer obs;
  // Node 2 tries to transmit at step 0 without ever having received. The
  // reference engine steps every node and rejects it directly.
  scripted_protocol proto({{2, {0}}}, &obs);
  run_options opts = capped(2);
  opts.engine = step_engine::reference;
  EXPECT_THROW(run_broadcast(g, proto, opts), invariant_error);
}

TEST(SimTest, SleeperSweepCatchesSpontaneousTransmission) {
  graph g = make_path(3);
  script_observer obs;
  // Under the soa engine a dormant node is never stepped, so a script
  // that violates the dormant-node contract goes unnoticed — unless
  // verify_sleepers sweeps it.
  scripted_protocol proto({{2, {0}}}, &obs);
  run_options opts = capped(2);
  opts.verify_sleepers = true;
  EXPECT_THROW(run_broadcast(g, proto, opts), invariant_error);
}

TEST(SimTest, SleeperSweepAcceptsContractAbidingProtocol) {
  graph g = make_path(3);
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {1, {1}}}, &obs);
  run_options opts = capped_full(4);
  opts.verify_sleepers = true;
  EXPECT_NO_THROW(run_broadcast(g, proto, opts));
  EXPECT_EQ(obs.received[2].size(), 1u);
}

// A round-robin-shaped SoA traits (node `label` may transmit at steps ≡
// label mod r + 1) whose calendar hint can answer one full cycle late — the
// sleep-contract bug the calendar sweep of verify_sleepers must catch.
struct slotted_soa_traits {
  std::int64_t modulus = 1;
  bool late = false;

  struct state {
    node_id label = 0;
    bool informed = false;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    s->informed = label == 0;
  }
  std::optional<message> on_step(state* s, const node_context& ctx) const {
    if (s->informed && ctx.step % modulus == s->label) {
      return message{1, s->label, 0, 0, 0, 0};
    }
    return std::nullopt;
  }
  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
  }
  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }
  void on_restart(state* s, const node_context&) const {
    s->informed = s->label == 0;
  }
  std::int64_t next_poll(const state& s, std::int64_t step) const {
    if (!s.informed) return kWakeOnReceive;
    const std::int64_t slot = next_residue(step + 1, s.label, modulus);
    return late ? slot + modulus : slot;
  }
};

run_result run_slotted(bool late, bool verify) {
  const graph g = make_path(4);
  slotted_soa_traits traits;
  traits.modulus = 4;
  traits.late = late;
  run_options opts = capped_full(12);
  opts.engine = step_engine::soa;
  opts.verify_sleepers = verify;
  return run_broadcast_soa(g, traits, 3, opts);
}

// slotted_soa_traits as a protocol, built the way src/core builds them.
slotted_soa_traits slotted_traits(node_id r) {
  slotted_soa_traits traits;
  traits.modulus = static_cast<std::int64_t>(r) + 1;
  return traits;
}

class slotted_protocol final : public protocol {
 public:
  std::string name() const override { return "slotted"; }
  bool deterministic() const override { return true; }
  const soa_entry* soa_runner() const override {
    return &soa_entry_for<slotted_traits>;
  }
};

TEST(SimTest, CalendarSweepAcceptsAnHonestHint) {
  const run_result r = run_slotted(/*late=*/false, /*verify=*/true);
  // Path 0-1-2-3, one hop per cycle of 4: steps 0, 1, 2 inform 1, 2, 3.
  EXPECT_EQ(r.informed_at, (std::vector<std::int64_t>{0, 0, 1, 2}));
  EXPECT_EQ(r.steps, 12);
}

TEST(SimTest, CalendarSweepCatchesALateHint) {
  // Unverified, the late hint silently skips slots: node 1 misses step 1
  // and node 2 is informed a cycle later than the protocol says.
  const run_result r = run_slotted(/*late=*/true, /*verify=*/false);
  EXPECT_NE(r.informed_at[2], 1);
  // The sweep runs on_step on a copy of every awake node the calendar
  // skipped, and node 1 transmits at step 1 before its answered wake.
  EXPECT_THROW(run_slotted(/*late=*/true, /*verify=*/true), invariant_error);
}

// ---------- calendar edge cases ----------
//
// The quiescence calendar keeps wakes fewer than 64 steps ahead on a timing
// wheel and farther ones in an overflow heap (sim/soa_engine.h). The cases
// below steer wakes across that boundary and through crashes and restarts;
// each must run bit-identical to the reference engine, which polls every
// node, with verify_sleepers on.

// Node `label` transmits at the steps of its script, each delayed by
// `shift` while it has heard the source an odd number of times; the hint
// answers the next such step exactly. The gaps between a script's steps
// set the wake distances, and every message from the source moves a queued
// wake away or back.
struct hopping_soa_traits {
  const script_map* scripts = nullptr;
  std::int64_t shift = 0;

  struct state {
    node_id label = 0;
    std::int32_t heard = 0;
    bool informed = false;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    on_restart(s, node_context{});
  }
  std::optional<message> on_step(state* s, const node_context& ctx) const {
    if (!s->informed) return std::nullopt;
    const auto it = scripts->find(s->label);
    if (it == scripts->end()) return std::nullopt;
    for (const std::int64_t t : it->second) {
      if (t + delay(*s) == ctx.step) {
        return message{1, s->label, ctx.step, 0, 0, 0};
      }
    }
    return std::nullopt;
  }
  void on_receive(state* s, const node_context&, const message& m) const {
    s->informed = true;
    if (m.from == 0) ++s->heard;
  }
  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }
  void on_restart(state* s, const node_context&) const {
    s->informed = s->label == 0;
    s->heard = 0;
  }
  std::int64_t next_poll(const state& s, std::int64_t step) const {
    if (!s.informed) return kWakeOnReceive;
    const auto it = scripts->find(s.label);
    if (it == scripts->end()) return kWakeOnReceive;
    for (const std::int64_t t : it->second) {  // scripts ascend
      if (t + delay(s) > step) return t + delay(s);
    }
    return kWakeOnReceive;
  }

  std::int64_t delay(const state& s) const {
    return s.heard % 2 == 1 ? shift : 0;
  }
};

class hopping_protocol final : public protocol {
 public:
  hopping_protocol(script_map scripts, std::int64_t shift)
      : scripts_(std::move(scripts)) {
    traits_.scripts = &scripts_;
    traits_.shift = shift;
  }

  std::string name() const override { return "hopping"; }
  bool deterministic() const override { return true; }
  const soa_entry* soa_runner() const override {
    return &soa_entry_for<&hopping_protocol::traits>;
  }

 private:
  hopping_soa_traits traits(node_id) const { return traits_; }

  script_map scripts_;
  hopping_soa_traits traits_;
};

// Crashes, recoveries and dropped deliveries at fixed steps.
class scripted_faults final : public fault::fault_model {
 public:
  enum class kind { crash, retain, amnesia, drop };
  struct event {
    std::int64_t step;
    node_id node;
    kind what;
  };

  explicit scripted_faults(std::vector<event> events)
      : events_(std::move(events)) {}

  std::string name() const override { return "scripted"; }
  void begin_run(const fault::run_view&) override {}
  void begin_step(const fault::step_view& view,
                  fault::step_faults* out) override {
    for (const event& e : events_) {
      if (e.step != view.step || e.what == kind::drop) continue;
      if (e.what == kind::crash) {
        out->crashes.push_back(e.node);
      } else {
        out->recoveries.push_back({e.node, e.what == kind::amnesia});
      }
    }
  }
  void filter_deliveries(
      const fault::step_view& view,
      std::vector<fault::delivery_candidate>* candidates) override {
    for (fault::delivery_candidate& c : *candidates) {
      for (const event& e : events_) {
        if (e.what == kind::drop && e.step == view.step &&
            e.node == c.listener) {
          c.suppressed = true;
        }
      }
    }
  }

 private:
  std::vector<event> events_;
};

struct observed_run {
  run_result result;
  std::vector<trace_event> events;
  std::string trace;  // the events as NDJSON
  std::string metrics;
};

observed_run observe_run(const graph& g, const protocol& proto,
                         run_options opts) {
  trace tr;
  obs::metrics_registry metrics;
  opts.sink = &tr;
  opts.metrics = &metrics;
  observed_run out;
  out.result = run_broadcast(g, proto, opts);
  out.events = tr.events();
  std::ostringstream os;
  tr.to_ndjson(os);
  out.trace = os.str();
  out.metrics = metrics.to_json().dump();
  return out;
}

// Runs `opts` on the reference engine and on the soa calendar, serially and
// sharded at step_threads 4 with grain 1, and expects every soa run to be
// bit-identical to the reference. Returns the reference run.
observed_run expect_calendar_matches_reference(const graph& g,
                                               const protocol& proto,
                                               run_options opts) {
  opts.engine = step_engine::reference;
  const observed_run ref = observe_run(g, proto, opts);
  opts.engine = step_engine::soa;
  opts.verify_sleepers = true;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("step_threads " + std::to_string(threads));
    opts.step_threads = threads;
    opts.step_shard_grain = threads > 1 ? 1 : 0;
    const observed_run soa = observe_run(g, proto, opts);
    EXPECT_EQ(soa.result.steps, ref.result.steps);
    EXPECT_EQ(soa.result.informed_at, ref.result.informed_at);
    EXPECT_EQ(soa.result.transmissions_per_node,
              ref.result.transmissions_per_node);
    EXPECT_EQ(soa.result.deliveries, ref.result.deliveries);
    EXPECT_EQ(soa.result.collisions, ref.result.collisions);
    EXPECT_EQ(soa.result.recoveries, ref.result.recoveries);
    EXPECT_EQ(soa.trace, ref.trace);
    EXPECT_EQ(soa.metrics, ref.metrics);
  }
  return ref;
}

bool transmitted(const observed_run& run, node_id node, std::int64_t step) {
  return std::any_of(run.events.begin(), run.events.end(),
                     [&](const trace_event& e) {
                       return e.what == trace_event::type::transmit &&
                              e.node == node && e.step == step;
                     });
}

// Star 0–{1, 2, 3}. The center informs the leaves in steps 0–2, then
// transmits 198, 1, 63, 64, 65 and 1000 steps apart: its wakes land far
// past the wheel, one step ahead, at the wheel's last slot, just past it
// and far past it again. Each of its steps 0–2 moves a leaf's queued wake
// by `shift` and back.
const script_map kHopScripts = {
    {0, {0, 1, 2, 200, 201, 264, 328, 393, 1393}},
    {1, {10, 150}},
    {2, {40, 41, 104, 168, 300}},
    {3, {63, 64, 128}}};

// The hop tests run on two stars. With 3 leaves every due list takes
// sort_due's mask path; with 2051 (leaves past 3 have no script and only
// listen) the short ones are sorted.
constexpr node_id kHopStars[] = {4, 2052};

TEST(SimTest, CalendarWakesAcrossTheWheelMatchPolling) {
  // Leaf 1's wake moves 10 + shift → 10 → 10 + shift in steps 0–2. Shift
  // 5 keeps it inside the wheel; shift 55 starts it in the overflow heap
  // and brings it back on the wheel, so a heap entry and a bucket both
  // hold it for step 65; shift 70 queues it in the heap twice.
  for (const node_id n : kHopStars) {
    const graph g = make_star(n);
    for (const std::int64_t shift : {5, 55, 70}) {
      SCOPED_TRACE("star " + std::to_string(n) + ", shift " +
                   std::to_string(shift));
      const hopping_protocol proto(kHopScripts, shift);
      const observed_run ref =
          expect_calendar_matches_reference(g, proto, capped_full(1500));
      for (const std::int64_t t : kHopScripts.at(0)) {
        EXPECT_TRUE(transmitted(ref, 0, t)) << t;
      }
      // Three receptions: the leaf's wake ends up shifted.
      EXPECT_TRUE(transmitted(ref, 1, 10 + shift));
      EXPECT_FALSE(transmitted(ref, 1, 10));
    }
  }
}

TEST(SimTest, CalendarCrashWhileQueuedMatchesPolling) {
  const hopping_protocol proto(kHopScripts, 5);
  using k = scripted_faults::kind;
  // Leaf 1 waits for step 15 (10 + 5): it crashes at step 5 and, retaining
  // its state, recovers before that step (12) or after it (20). Leaf 3
  // crashes while queued in the heap for step 68 and recovers at 66.
  for (const node_id n : kHopStars) {
    const graph g = make_star(n);
    for (const std::int64_t back : {12, 20}) {
      SCOPED_TRACE("star " + std::to_string(n) + ", recovery at " +
                   std::to_string(back));
      scripted_faults faults({{5, 1, k::crash},
                              {back, 1, k::retain},
                              {30, 3, k::crash},
                              {66, 3, k::retain}});
      run_options opts = capped_full(400);
      opts.faults = &faults;
      const observed_run ref =
          expect_calendar_matches_reference(g, proto, opts);
      EXPECT_EQ(transmitted(ref, 1, 15), back < 15);
      EXPECT_TRUE(transmitted(ref, 3, 68));
    }
  }
}

TEST(SimTest, CalendarAmnesiaRecoveryMatchesPolling) {
  const hopping_protocol proto(kHopScripts, 5);
  using k = scripted_faults::kind;
  // Leaf 1 restarts uninformed while its step-15 wake is still queued, and
  // must not act until the center's step-200 transmission re-informs it.
  // The center restarts too, with its step-200 wake queued in the heap.
  scripted_faults faults({{5, 1, k::crash},
                          {12, 1, k::amnesia},
                          {100, 0, k::crash},
                          {101, 0, k::amnesia}});
  for (const node_id n : kHopStars) {
    SCOPED_TRACE("star " + std::to_string(n));
    run_options opts = capped_full(400);
    opts.faults = &faults;
    const observed_run ref =
        expect_calendar_matches_reference(make_star(n), proto, opts);
    EXPECT_FALSE(transmitted(ref, 1, 15));
    EXPECT_EQ(ref.result.informed_at[1], 200);
    EXPECT_TRUE(transmitted(ref, 0, 200));
  }
}

TEST(SimTest, CalendarWakesAtTheStepCapMatchPolling) {
  constexpr std::int64_t kCap = 200;
  // The center wakes at the last step and at the cap itself, which never
  // runs; leaf 2 (shifted by 5 after three receptions) wakes at the cap.
  const hopping_protocol proto(
      {{0, {0, 1, 2, kCap - 1, kCap}}, {2, {kCap - 5}}}, 5);
  for (const node_id n : kHopStars) {
    SCOPED_TRACE("star " + std::to_string(n));
    const observed_run ref =
        expect_calendar_matches_reference(make_star(n), proto,
                                          capped_full(kCap));
    EXPECT_EQ(ref.result.steps, kCap);
    EXPECT_TRUE(transmitted(ref, 0, kCap - 1));
    EXPECT_EQ(ref.result.transmissions_per_node[2], 0);
  }
}

TEST(SimTest, DecayRetainRecoveryDrawsMidPhase) {
  // Path 0–…–7, r = 7: Decay phases last 2⌈log 8⌉ = 6 steps. Node 1 is
  // informed at step 0 and sits out phase 0; it crashes at step 4 and
  // recovers with its state at step 8, offset 2 of phase 1, for which it
  // has not drawn. The reference engine polls it at step 8, so it draws
  // there; had the calendar held it asleep, the sleeper sweep would see the
  // draw and throw, and the streams would diverge from the reference.
  const graph g = make_path(8);
  const auto proto = make_protocol("decay", 7);
  using k = scripted_faults::kind;
  scripted_faults faults({{4, 1, k::crash}, {8, 1, k::retain}});
  for (const std::uint64_t seed : {1U, 2U, 3U}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_options opts = capped_full(60);
    opts.seed = seed;
    opts.faults = &faults;
    const observed_run ref =
        expect_calendar_matches_reference(g, *proto, opts);
    EXPECT_EQ(ref.result.informed_at[1], 0);
    EXPECT_EQ(ref.result.recoveries, 1);
  }
}

std::vector<trace_event> events_at(const observed_run& run,
                                   std::int64_t step, trace_event::type what) {
  std::vector<trace_event> out;
  for (const trace_event& e : run.events) {
    if (e.step == step && e.what == what) out.push_back(e);
  }
  return out;
}

bool heard(const observed_run& run, std::int64_t step, node_id listener,
           node_id sender) {
  const auto receptions = events_at(run, step, trace_event::type::receive);
  return std::any_of(receptions.begin(), receptions.end(),
                     [&](const trace_event& e) {
                       return e.node == listener && e.msg.from == sender;
                     });
}

// Reception records are all zero between steps: the commit resets each one
// it resolves, and the sharded merge clears each shard record it consumes.
// Every scenario below leaves a record non-zero at the end of one step's
// phase 2 in a different way, and the next step must read it as fresh. The
// soa legs run with verify_sleepers, which also checks after every commit
// that the run's records and every shard's are back to zero.
TEST(SimTest, ReceptionRecordsResetBetweenSteps) {
  {
    SCOPED_TRACE("collision, then a single transmitter");
    // 0 informs 1 and 2; at step 1 both transmit: 0 and 3 collide, and 1
    // and 2 reach each other while transmitting. At step 2, 1 alone
    // reaches 0 and 3 (collided at step 1) and 2 (reached at step 1 while
    // it transmitted).
    graph g = graph::undirected(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    g.finalize();
    script_observer obs;
    const scripted_protocol proto({{0, {0}}, {1, {1, 2}}, {2, {1}}}, &obs);
    const observed_run ref =
        expect_calendar_matches_reference(g, proto, capped_full(4));
    EXPECT_EQ(events_at(ref, 1, trace_event::type::collision).size(), 2u);
    EXPECT_TRUE(events_at(ref, 1, trace_event::type::receive).empty());
    EXPECT_TRUE(heard(ref, 2, 0, 1));
    EXPECT_TRUE(heard(ref, 2, 2, 1));
    EXPECT_TRUE(heard(ref, 2, 3, 1));
    EXPECT_EQ(ref.result.informed_at[3], 2);
    EXPECT_EQ(ref.result.collisions, 2);
    EXPECT_EQ(ref.result.deliveries, 5);
  }
  {
    SCOPED_TRACE("suppressed delivery, crash of a touched listener");
    // Star 0–{1, 2, 3, 4}. Step 0: leaf 1's delivery is dropped. Step 1:
    // leaf 1 hears the center cleanly; leaf 2, touched at step 0, has
    // crashed and hears nothing. Step 2: leaves 3 and 4 collide at the
    // center. Step 3: leaf 2 is back and hears the center; leaf 1's
    // delivery is dropped again, and it hears the center at step 4.
    using k = scripted_faults::kind;
    scripted_faults faults({{0, 1, k::drop},
                            {1, 2, k::crash},
                            {3, 2, k::retain},
                            {3, 1, k::drop}});
    script_observer obs;
    const scripted_protocol proto(
        {{0, {0, 1, 3, 4}}, {3, {2}}, {4, {2}}}, &obs);
    run_options opts = capped_full(6);
    opts.faults = &faults;
    const observed_run ref =
        expect_calendar_matches_reference(make_star(5), proto, opts);
    EXPECT_EQ(ref.result.suppressed_deliveries, 2);
    EXPECT_EQ(ref.result.informed_at[1], 1);
    EXPECT_TRUE(heard(ref, 1, 1, 0));
    EXPECT_FALSE(heard(ref, 1, 2, 0));
    EXPECT_EQ(events_at(ref, 2, trace_event::type::collision).size(), 1u);
    EXPECT_TRUE(heard(ref, 3, 2, 0));
    EXPECT_FALSE(heard(ref, 3, 1, 0));
    EXPECT_TRUE(heard(ref, 4, 1, 0));
  }
  {
    SCOPED_TRACE("every node touched in one step");
    // K_6: step 1 has two transmitters, so all six nodes are touched and
    // the touched list fills its slack slot; step 3 has six. After each,
    // a lone transmitter reaches every other node.
    constexpr node_id kN = 6;
    script_observer obs;
    const scripted_protocol proto({{0, {0, 3}},
                                   {1, {1, 3}},
                                   {2, {1, 3}},
                                   {3, {2, 3}},
                                   {4, {3, 4}},
                                   {5, {3}}},
                                  &obs);
    const observed_run ref =
        expect_calendar_matches_reference(make_complete(kN), proto,
                                          capped_full(6));
    EXPECT_EQ(events_at(ref, 1, trace_event::type::collision).size(), 4u);
    EXPECT_EQ(events_at(ref, 2, trace_event::type::receive).size(), 5u);
    EXPECT_TRUE(events_at(ref, 3, trace_event::type::collision).empty());
    EXPECT_TRUE(events_at(ref, 3, trace_event::type::receive).empty());
    EXPECT_EQ(events_at(ref, 4, trace_event::type::receive).size(), 5u);
    EXPECT_TRUE(heard(ref, 4, 0, 4));
  }
}

// A transmitter's record starts phase 2 at kTransmitting, so phase 2 never
// lists it as a touched listener, however many arrivals it absorbs. Star
// 0–{1, …, 5000}: at step 1 the hub transmits with every leaf, and its
// record takes 5 000 arrivals. At step_threads 4 the degree-balanced cut
// puts the hub alone in the first phase-2 shard, so the leaves' arrivals
// reach its record through the shard merge. Steps 2 and 3 must read the
// leaves' and the hub's records as fresh.
TEST(SimTest, TransmittingHubAbsorbsEveryLeafArrival) {
  constexpr node_id kLeaves = 5000;
  script_map scripts = {{0, {0, 1, 2}}};
  for (node_id v = 1; v <= kLeaves; ++v) scripts[v] = {1};
  scripts[1] = {1, 3};
  script_observer obs;
  const scripted_protocol proto(std::move(scripts), &obs);
  const observed_run ref = expect_calendar_matches_reference(
      make_star(kLeaves + 1), proto, capped_full(5));
  EXPECT_EQ(events_at(ref, 1, trace_event::type::transmit).size(),
            static_cast<std::size_t>(kLeaves) + 1);
  EXPECT_TRUE(events_at(ref, 1, trace_event::type::collision).empty());
  EXPECT_TRUE(events_at(ref, 1, trace_event::type::receive).empty());
  EXPECT_EQ(events_at(ref, 2, trace_event::type::receive).size(),
            static_cast<std::size_t>(kLeaves));
  EXPECT_TRUE(heard(ref, 3, 0, 1));
  EXPECT_EQ(ref.result.collisions, 0);
  EXPECT_EQ(ref.result.deliveries, 2 * kLeaves + 1);
}

// The polling walk (traits without next_poll) lists each step's visits off
// the awake mask. Star 0–{1, …, n − 1}: leaf 2 and the last leaf are
// crashed through the center's step-0 transmission and stay asleep after
// they recover; leaf 1, awake since step 0, crashes at step 2 and comes
// back at step 3, retaining its state or with amnesia, in the step where
// the center's second transmission wakes the other two. The last leaf sits
// in the mask's last, partial word: the only word on 4 nodes, the 33rd on
// 2 052.
TEST(SimTest, PollingWalkFollowsTheAwakeMask) {
  using k = scripted_faults::kind;
  for (const node_id n : kHopStars) {
    const node_id last = n - 1;
    for (const k back : {k::retain, k::amnesia}) {
      SCOPED_TRACE("star " + std::to_string(n) +
                   (back == k::retain ? ", retain" : ", amnesia"));
      scripted_faults faults({{0, 2, k::crash},
                              {0, last, k::crash},
                              {1, 2, k::retain},
                              {1, last, k::retain},
                              {2, 1, k::crash},
                              {3, 1, back}});
      script_observer obs;
      const scripted_protocol proto(
          {{0, {0, 3}}, {1, {4}}, {2, {6}}, {last, {5}}}, &obs);
      run_options opts = capped_full(8);
      opts.faults = &faults;
      const observed_run ref =
          expect_calendar_matches_reference(make_star(n), proto, opts);
      EXPECT_EQ(ref.result.informed_at[2], 3);
      EXPECT_EQ(ref.result.informed_at[static_cast<std::size_t>(last)], 3);
      EXPECT_EQ(ref.result.informed_at[1], back == k::retain ? 0 : 3);
      EXPECT_TRUE(heard(ref, 4, 0, 1));
      EXPECT_TRUE(heard(ref, 5, 0, last));
      EXPECT_TRUE(heard(ref, 6, 0, 2));
      EXPECT_EQ(ref.result.recoveries, 3);
    }
  }
}

// A traits whose on_receive reads its begin_step hoist: a bank's user
// calls begin_step once per step, and a reception in a step where on_step
// never ran (a dormant node's first delivery, or the adversary feeding a
// candidate) must see that step's hoist.
struct hoist_probe_traits {
  std::int64_t hoisted = -1;

  struct state {
    node_id label = 0;
    std::int64_t heard_hoist = -1;
    bool informed = false;
  };

  void begin_step(std::int64_t step) { hoisted = step; }
  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    s->informed = label == 0;
  }
  std::optional<message> on_step(state* s, const node_context&) const {
    if (!s->informed) return std::nullopt;
    return message{1, s->label, s->heard_hoist, hoisted, 0, 0};
  }
  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
    s->heard_hoist = hoisted;
  }
  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }
  void on_restart(state* s, const node_context&) const {
    s->informed = s->label == 0;
    s->heard_hoist = hoisted;
  }
};

hoist_probe_traits hoist_probe(node_id) { return {}; }

class hoist_probe_protocol final : public protocol {
 public:
  std::string name() const override { return "hoist-probe"; }
  bool deterministic() const override { return true; }
  const soa_entry* soa_runner() const override {
    return &soa_entry_for<hoist_probe>;
  }
};

TEST(SimTest, BankHoistsOncePerStepForEveryHook) {
  const graph g = make_path(4);
  const hoist_probe_protocol proto;
  run_options opts;
  opts.labels = {0, 3, 1, 2};
  const std::unique_ptr<node_bank> bank =
      proto.soa_runner()->make_bank(g, proto, 3, opts);
  rng gen(5);
  EXPECT_TRUE(bank->informed(0));
  EXPECT_FALSE(bank->informed(1));
  bank->begin_step(4);
  bank->on_receive(1, node_context{4, &gen, nullptr}, message{});
  bank->begin_step(6);
  const std::optional<message> out =
      bank->on_step(1, node_context{6, &gen, nullptr});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->from, 3);  // node 1 carries label 3
  EXPECT_EQ(out->a, 4);     // the reception saw step 4's hoist
  EXPECT_EQ(out->b, 6);     // the step saw its own
  // reset(v) returns what init made: uninformed, no hoist heard.
  bank->reset(1);
  EXPECT_FALSE(bank->informed(1));
  EXPECT_FALSE(bank->on_step(1, node_context{7, &gen, nullptr}).has_value());
  bank->begin_step(9);
  bank->on_receive(1, node_context{9, &gen, nullptr}, message{});
  EXPECT_EQ(bank->on_step(1, node_context{9, &gen, nullptr})->a, 9);
  bank->reset(0);
  EXPECT_TRUE(bank->informed(0));
  EXPECT_EQ(bank->on_step(0, node_context{9, &gen, nullptr})->a, -1);
}

TEST(SimTest, VirtualViewHidesTheTraitsForm) {
  graph g = make_path(3);
  // virtual_view hides a traits protocol's entry behind its own, so its
  // runs take the virtual per-node path — without the calendar, to the
  // same result.
  const slotted_protocol slotted;
  const virtual_view view(slotted);
  ASSERT_NE(view.soa_runner(), nullptr);
  EXPECT_NE(view.soa_runner(), slotted.soa_runner());
  EXPECT_EQ(view.name(), slotted.name());
  run_options opts = capped(4);
  opts.engine = step_engine::soa;
  EXPECT_EQ(run_broadcast(g, view, opts).informed_at,
            run_broadcast(g, slotted, opts).informed_at);
}

// RAII guard restoring RADIOCAST_THREADS afterwards, so a test cannot leak
// environment state into other tests.
class env_guard {
 public:
  explicit env_guard(const char* value) {
    const char* old = std::getenv("RADIOCAST_THREADS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::setenv("RADIOCAST_THREADS", value, 1);
  }
  ~env_guard() {
    if (had_) {
      ::setenv("RADIOCAST_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("RADIOCAST_THREADS");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

// A traits protocol that notes whether any on_step ran off the thread that
// built it. On a star the center informs every leaf at step 0, so phase 1
// of steps 1 and 2 walks all n awake nodes; a node halts after two polls.
struct thread_probe_traits {
  std::thread::id caller;
  std::atomic<bool>* off_thread = nullptr;

  struct state {
    bool informed = false;
    int polls = 0;
  };

  void init(state* s, node_id label, const protocol_params&) const {
    s->informed = label == 0;
  }
  std::optional<message> on_step(state* s, const node_context& ctx) const {
    if (!s->informed) return std::nullopt;
    if (std::this_thread::get_id() != caller) off_thread->store(true);
    ++s->polls;
    if (ctx.step == 0) return message{1, 0, 0, 0, 0, 0};
    return std::nullopt;
  }
  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
  }
  bool informed(const state& s) const { return s.informed; }
  bool halted(const state& s) const { return s.polls >= 2; }
  void on_restart(state*, const node_context&) const {}
};

class thread_probe_protocol final : public protocol {
 public:
  explicit thread_probe_protocol(std::atomic<bool>* off_thread) {
    traits_.caller = std::this_thread::get_id();
    traits_.off_thread = off_thread;
  }

  std::string name() const override { return "thread-probe"; }
  bool deterministic() const override { return true; }
  const soa_entry* soa_runner() const override {
    return &soa_entry_for<&thread_probe_protocol::traits>;
  }

 private:
  thread_probe_traits traits(node_id) const { return traits_; }

  thread_probe_traits traits_;
};

TEST(SimTest, DefaultRunNeverShards) {
  // Intra-step threads are opt-in. Even with RADIOCAST_THREADS=4, a run
  // with default options polls every node on the calling thread. 10 000
  // awake nodes clear the default grain's sharding floor of 2 × 4096.
  env_guard guard("4");
  const graph g = make_star(10'000);
  std::atomic<bool> off_thread{false};
  const thread_probe_protocol proto(&off_thread);
  run_options opts;
  opts.stop = stop_condition::all_halted;
  ASSERT_TRUE(run_broadcast(g, proto, opts).completed);
  EXPECT_FALSE(off_thread.load()) << "a default-options run sharded";

  // Asked to, the traits form shards — and so does its virtual view, whose
  // workers share one bank.
  run_options threaded = opts;
  threaded.step_threads = 4;
  threaded.step_shard_grain = 1;
  ASSERT_TRUE(run_broadcast(g, proto, threaded).completed);
  EXPECT_TRUE(off_thread.exchange(false)) << "step_threads = 4 did not shard";
  const virtual_view view(proto);
  ASSERT_TRUE(run_broadcast(g, view, threaded).completed);
  EXPECT_TRUE(off_thread.load()) << "the virtual view did not shard";
}

TEST(SimTest, DfsKnownShardsLikeItsSerialRun) {
  // dfs_known keeps each node's neighbor row and unvisited flags in
  // per-run arrays outside the POD state; only the owning node writes its
  // row, from hooks the engine runs serially. A sharded run must match the
  // serial one (ci.sh runs this binary under TSan, which checks the rows).
  rng topo_gen(17);
  const graph g = make_random_tree(300, topo_gen);
  const dfs_known_protocol proto(g);
  run_options opts;
  opts.stop = stop_condition::all_halted;
  opts.max_steps = 10'000;
  const run_result serial = run_broadcast(g, proto, opts);
  ASSERT_TRUE(serial.completed);
  EXPECT_EQ(serial.steps, 3 * g.node_count() - 1);
  opts.step_threads = 4;
  opts.step_shard_grain = 1;
  const run_result sharded = run_broadcast(g, proto, opts);
  EXPECT_EQ(sharded.steps, serial.steps);
  EXPECT_EQ(sharded.informed_at, serial.informed_at);
  EXPECT_EQ(sharded.transmissions_per_node, serial.transmissions_per_node);
  EXPECT_EQ(sharded.deliveries, serial.deliveries);
  EXPECT_EQ(sharded.collisions, serial.collisions);
}

TEST(SimTest, UnfinalizedGraphIsRejected) {
  graph g = graph::undirected(2);
  g.add_edge(0, 1);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  EXPECT_THROW(run_broadcast(g, proto, capped(2)), precondition_error);
}

TEST(SimTest, EnginesAgreeOnScriptedRun) {
  graph g = make_star(6);
  for (const auto engine : {step_engine::soa, step_engine::reference}) {
    script_observer obs;
    scripted_protocol proto({{0, {0}}, {1, {1}}, {2, {2}}}, &obs);
    run_options opts = capped_full(4);
    opts.engine = engine;
    // Step 0: the center informs all 5 leaves; steps 1 and 2: one leaf
    // each replies to the center (a leaf's only neighbor).
    const run_result r = run_broadcast(g, proto, opts);
    EXPECT_EQ(r.deliveries, 5 + 1 + 1) << "engine differs";
    EXPECT_EQ(obs.received[0].size(), 2u);
  }
}

TEST(SimTest, SourceMayTransmitImmediately) {
  graph g = make_path(2);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  EXPECT_NO_THROW(run_broadcast(g, proto, capped(2)));
}

TEST(SimTest, DirectedEdgesDeliverOneWay) {
  graph g = graph::directed(3);
  g.add_edge(0, 1);  // 0 → 1
  g.add_edge(2, 1);  // 2 → 1 (2 unreachable from 0; it stays silent)
  g.finalize();
  script_observer obs;
  scripted_protocol proto({{0, {0, 1}}}, &obs);
  run_broadcast(g, proto, capped_full(3));
  EXPECT_EQ(obs.received[1].size(), 2u);
  EXPECT_TRUE(obs.received[0].empty());  // no arc into 0
  EXPECT_TRUE(obs.received[2].empty());  // no arc into 2
}

TEST(SimTest, DirectedCollisionUsesInNeighbors) {
  // 0→2, 1→2, 0→1: step 0: 0 transmits (1 and 2 hear). step 1: 0 and 1
  // transmit → 2 has two transmitting in-neighbors → silence.
  graph g = graph::directed(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(0, 1);
  g.finalize();
  script_observer obs;
  scripted_protocol proto({{0, {0, 1}}, {1, {1}}}, &obs);
  run_broadcast(g, proto, capped_full(3));
  ASSERT_EQ(obs.received[2].size(), 1u);  // only the step-0 message
  EXPECT_EQ(obs.received[2][0].first, 0);
}

// ---------- bookkeeping ----------

TEST(SimTest, InformedAtTracksFirstReception) {
  graph g = make_path(3);
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {1, {4}}}, &obs);
  const run_result r = run_broadcast(g, proto, capped(10));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.informed_at[0], 0);
  EXPECT_EQ(r.informed_at[1], 0);
  EXPECT_EQ(r.informed_at[2], 4);
  EXPECT_EQ(r.informed_step, 5);  // completed after step 4
}

TEST(SimTest, IncompleteRunReportsFailure) {
  graph g = make_path(3);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);  // node 2 never reached
  const run_result r = run_broadcast(g, proto, capped(5));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.steps, 5);
  EXPECT_EQ(r.informed_at[2], -1);
}

TEST(SimTest, CountersAreConsistent) {
  graph g = make_star(4);
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {1, {1}}, {2, {1}}, {3, {2}}}, &obs);
  const run_result r = run_broadcast(g, proto, capped_full(4));
  // transmissions: 0@0, 1@1, 2@1, 3@2.
  EXPECT_EQ(r.transmissions, 4);
  // deliveries: 3 at step 0; collision at 0 in step 1; 3@2 delivers to 0.
  EXPECT_EQ(r.collisions, 1);
  EXPECT_EQ(r.deliveries, 4);
}

TEST(SimTest, TraceRecordsEvents) {
  graph g = make_path(2);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  trace t;
  run_options opts = capped(2);
  opts.sink = &t;
  run_broadcast(g, proto, opts);
  EXPECT_EQ(t.filter(trace_event::type::transmit).size(), 1u);
  EXPECT_EQ(t.filter(trace_event::type::receive).size(), 1u);
  EXPECT_EQ(t.filter(trace_event::type::informed).size(), 1u);
  EXPECT_NE(t.to_string().find("transmits"), std::string::npos);
}

TEST(SimTest, ExplicitLabelBoundValidated) {
  graph g = make_path(2);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  EXPECT_THROW(run_broadcast_with_r(g, proto, 0, capped(2)),
               precondition_error);
  EXPECT_NO_THROW(run_broadcast_with_r(g, proto, 5, capped(2)));
}

TEST(SimTest, CompletionTimesThrowsOnNonCompletion) {
  graph g = make_path(3);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  EXPECT_THROW(completion_times(g, proto, 1, 1, 5), invariant_error);
}

// ---------- trial_set accounting ----------

trial_record make_trial(std::uint64_t seed, bool completed,
                        std::int64_t informed_step, double wall_ms) {
  trial_record t;
  t.seed = seed;
  t.completed = completed;
  t.steps = completed ? informed_step : 100;
  t.informed_step = completed ? informed_step : -1;
  t.wall_ms = wall_ms;
  return t;
}

TEST(SimTest, TrialSetAccountingOnMixedBatch) {
  trial_set batch;
  batch.trials.push_back(make_trial(1, true, 40, 1.0));
  batch.trials.push_back(make_trial(2, false, -1, 2.5));
  batch.trials.push_back(make_trial(3, true, 60, 0.5));
  batch.trials.push_back(make_trial(4, false, -1, 4.0));

  EXPECT_EQ(batch.completed_count(), 2u);
  EXPECT_FALSE(batch.all_completed());
  EXPECT_DOUBLE_EQ(batch.timeout_rate(), 0.5);
  // completion_steps: completed trials only, in trial order.
  const std::vector<double> steps = batch.completion_steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0], 40.0);
  EXPECT_DOUBLE_EQ(steps[1], 60.0);
  // wall-clock sums over ALL trials, timed-out ones included.
  EXPECT_DOUBLE_EQ(batch.total_wall_ms(), 8.0);
}

TEST(SimTest, TrialSetAccountingEdgeCases) {
  trial_set empty;
  EXPECT_EQ(empty.completed_count(), 0u);
  EXPECT_TRUE(empty.all_completed());  // vacuous
  EXPECT_DOUBLE_EQ(empty.timeout_rate(), 0.0);
  EXPECT_TRUE(empty.completion_steps().empty());

  trial_set all_timeout;
  all_timeout.trials.push_back(make_trial(1, false, -1, 1.0));
  all_timeout.trials.push_back(make_trial(2, false, -1, 1.0));
  EXPECT_EQ(all_timeout.completed_count(), 0u);
  EXPECT_DOUBLE_EQ(all_timeout.timeout_rate(), 1.0);
  EXPECT_TRUE(all_timeout.completion_steps().empty());
}

TEST(SimTest, RunTrialsRecordsTimeoutsAsData) {
  // A source that transmits only at step 0 cannot inform a 4-path within
  // the cap: every trial must time out, with no exception thrown.
  graph g = make_path(4);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  trial_options topts;
  topts.trials = 3;
  topts.base_seed = 7;
  topts.max_steps = 10;
  const trial_set batch = run_trials(g, proto, topts);
  ASSERT_EQ(batch.trials.size(), 3u);
  EXPECT_DOUBLE_EQ(batch.timeout_rate(), 1.0);
  for (std::size_t t = 0; t < batch.trials.size(); ++t) {
    EXPECT_EQ(batch.trials[t].seed, 7u + t);
    EXPECT_FALSE(batch.trials[t].completed);
    EXPECT_EQ(batch.trials[t].steps, 10);
    EXPECT_EQ(batch.trials[t].informed_step, -1);
    EXPECT_EQ(batch.trials[t].crashed_nodes, 0);
    EXPECT_EQ(batch.trials[t].suppressed_deliveries, 0);
    EXPECT_EQ(batch.trials[t].churned_edges, 0);
  }
}

TEST(SimTest, CompletionTimesMatchesRunTrialsOnCompletion) {
  // Star: the source transmits once, everyone is informed at step 0.
  graph g = make_star(5);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  trial_options topts;
  topts.trials = 4;
  topts.base_seed = 3;
  topts.max_steps = 10;
  const trial_set batch = run_trials(g, proto, topts);
  EXPECT_TRUE(batch.all_completed());
  const std::vector<double> direct = completion_times(g, proto, 4, 3, 10);
  EXPECT_EQ(direct, batch.completion_steps());
}

}  // namespace
}  // namespace radiocast
