// Struct-of-arrays step engine: the one run type for every protocol, on
// both step engines.
//
// A per-node protocol_node pays three taxes per awake node per step: a
// pointer chase to a heap-scattered node object, a virtual on_step call the
// compiler cannot inline, and the cache misses both imply once n outgrows
// the LLC. soa_run removes all three: every protocol's soa_runner() lands
// here whatever run_options::engine says. virtual_view (sim/protocol.h)
// runs here too, through a small adapter traits (sim/simulator.cpp) whose
// POD state is a pointer to a per-node traits_node — it keeps the taxes
// but shares every line of the step loops:
//
//   * step_engine::reference runs run_base::run_reference (on_step on all
//     n nodes); step_engine::soa runs the loop below (the walk over the
//     awake mask, the quiescence calendar, and intra-step sharding). The
//     calendar and the pool exist only under step_engine::soa: the
//     reference loop is what the differential suite holds the next_poll
//     hints and the dormant-node contract against;
//
//   * STATE: per-node protocol state is one contiguous std::vector of a POD
//     `Traits::state` (plus the flat awake/crashed/received masks and the
//     per-node RNG pool the shared core already keeps as arrays) — phase 1
//     is a linear walk over dense arrays;
//   * DISPATCH: the step loop is templated on the protocol's Traits, so
//     traits.on_step inlines into the loop body. Runtime protocol selection
//     happens ONCE per run (protocol::soa_runner returns the entry function
//     pointer for this translation unit's instantiation), not per step;
//   * SHARDING: phase 1 (transmit decisions) and phase 2 (reception scan)
//     of a SINGLE step can fan out over an exec::thread_pool
//     (run_options::step_threads) and still produce bit-identical results.
//
// THE ORDERED-MERGE ARGUMENT (why sharded ≡ serial, bit for bit):
//
//   Phase 1 cuts the step's sorted visit list — every awake node, read off
//   the awake mask in ascending order, or the due list under the
//   quiescence calendar below — into contiguous shards. Each worker writes
//   only per-node-disjoint slots (states_[v], gens_[v]) plus a
//   shard-private slice of transmitters and their messages; per-node RNG
//   streams make the draws independent of the sharding. The merge walks
//   shards IN ORDER appending transmitters and messages — and since shard
//   s covers an ascending contiguous slice, the concatenation IS the serial
//   visit order: transmitters_, tx_msgs_, trace transmit events, and
//   transmissions_per_node come out byte-identical.
//
//   Phase 2 cuts the transmitter list (already in serial order, by phase
//   1) into contiguous shards balanced by out-degree sum. Each worker runs
//   the serial scan (run_base::phase_two_hoisted) over its range into
//   SHARD-PRIVATE scratch of the same shape as the run's: one 8-byte
//   reception record per node, all zero outside phase 2, and a first-touch
//   list. The merge walks shards in order and feeds each touched entry
//   through the same add_arrivals bump, with the shard's count as the
//   increment: a listener first touched in shard s joins the global
//   touched list while merging shard s. A shard's records are not marked,
//   so a shard lists the transmitters it reaches; the run's records are,
//   so the merge adds their counts to a kTransmitting record and never
//   lists them. Serial first-touch order sorts listeners by the index of
//   the first transmitter that reaches them; every listener first touched
//   in shard s has that index inside shard s's contiguous range, so
//   shard-order concatenation of per-shard first-touch orders equals the
//   serial order. Arrival counts add across shards (same sum as serial),
//   and last_sender — an index into the whole transmitter list, which
//   every shard indexes — resolves by shard-order overwrite: the last
//   shard touching v holds the globally last transmitter index, exactly
//   serial's last-write. The merge clears each shard record it consumes,
//   so the shard scratch is all zero again for the next step.
//   (run_options::debug_unordered_merge reverses the merge to prove the
//   chaos engine-bit-identity invariant catches a broken reduction.)
//
//   Everything downstream of the merge — commit_receptions, the fault
//   delivery filter, traces, metrics, the wakes on the awake mask — is the
//   shared serial code in sim/engine_core.h, operating on merged state that
//   is byte-identical to what a serial phase produced.
//
// Metrics-enabled runs pin phase 1 serial: protocols write their metrics
// from on_step, and every shard would write through the one registry
// (instruments and handle caches alike). Per-shard registries merged in
// shard order would reproduce the serial values — counters and histograms
// add, and gauge::merge_from keeps the last shard's write, which is the
// serial last write — but phase 1 does not have them yet. Phase 2 never
// calls protocol code, so it shards regardless.
//
// QUIESCENCE CALENDAR (traits with next_poll): a token protocol never lets
// an informed node go dormant, yet almost every awake node is waiting — for
// a reply slot, a token, a round-robin turn; a Decay node transmits only in
// the first few steps of each phase. Polling them costs Θ(|awake|) on_step
// calls per step. A traits that declares next_poll (the SLEEP CONTRACT in
// sim/protocol.h) tells the engine when each node next needs a call, and
// phase 1 walks only the nodes due this step:
//
//   * wake_[v] is the step node v asked for. A wake fewer than kWheelSlots
//     (64) steps ahead of the step that asked sits in bucket `wake mod 64`
//     of a timing wheel: an intrusive doubly-linked list threaded through
//     the per-node next_/prev_ arrays, so a node sits in at most one bucket
//     and a moved wake unlinks in O(1). Bucket b is drained at the next
//     step ≡ b, which is exactly the wake, since no wheel wake lies 64 or
//     more steps out. Farther wakes go to a binary min-heap of (step, node)
//     entries, the overflow; a moved heap wake is dropped lazily when
//     popped (it counts only while it matches wake_[v], the node is awake,
//     and no bucket holds the node). 64 is the first power of two above
//     Decay's longest phase (62 steps), so Decay never touches the heap.
//   * A crash needs no calendar edit: drained nodes that are not awake
//     (crashed, or evicted by an amnesia restart) are skipped.
//   * The due list comes out sorted ascending — the visit order of the
//     polling walk over the awake mask — and goes through the same
//     contiguous-shard phase-1 path. Heap entries pop in (step, node)
//     order; a bucket is unordered, so a short due list is sorted and a
//     long one is scattered into an n-bit mask whose words are scanned
//     back out in order. Transmitters,
//     traces, and rng streams are therefore identical to polling.
//   * next_poll is asked again after every on_step (serially, after phase
//     1), every on_receive, and every recovery (retain or amnesia, asked
//     for "after step − 1" so the node can act in the recovery step
//     itself). Faults, metrics, and step_threads > 1 all use the calendar;
//     there is no polling fallback.
//   * Traits without next_poll compile, through `if constexpr`, to the
//     plain polling walk: each step lists every awake node into due_ by
//     scanning the awake mask's words in ascending order. virtual_view
//     (sim/protocol.h) hides a traits protocol behind that adapter, which
//     is how the tests and benches time and check the walk without the
//     calendar.
//
// Traits requirements (see core/decay.cpp for the worked pattern). The
// traits struct IS the protocol: make_node wraps the same configured traits
// in a traits_node (below), so there is no second implementation to keep
// in step.
//   struct state;                       // POD per-node protocol state
//   void init(state*, node_id label, const protocol_params&) const;
//   std::optional<message> on_step(state*, const node_context&) const;
//   void on_receive(state*, const node_context&, const message&) const;
//   bool informed(const state&) const;
//   bool halted(const state&) const;
//   void on_restart(state*, const node_context&) const;
// Optionally:
//   void begin_step(std::int64_t step);  // per-step hoist, see below
//   std::int64_t next_poll(const state&, std::int64_t step) const;
//       // sleep hint, see the calendar above and sim/protocol.h: the
//       // earliest step after `step` at which on_step could act, assuming
//       // no reception in between; kWakeOnReceive = only a reception.
//       // The signature is exact (radiocast_analyze P3): a narrower type
//       // would truncate steps.
// begin_step is called ONCE per step, serially, after the step's faults
// and before phase 1 (and before the verify_sleepers sweep), on every
// engine. Schedule arithmetic that depends only on the step number —
// phase/offset divisions, block lookups, stage probabilities — is
// identical for every node, so traits cache it here and on_step and
// on_receive read the cache; during the sharded region workers only READ
// the traits object, so the hoist is race-free. on_restart runs before the
// step's begin_step and must not read the cache.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/sharding.h"
#include "exec/thread_pool.h"
#include "sim/engine_core.h"

namespace radiocast {

namespace detail {
template <class T, class = void>
struct traits_have_begin_step : std::false_type {};
template <class T>
struct traits_have_begin_step<
    T, std::void_t<decltype(std::declval<T&>().begin_step(std::int64_t{}))>>
    : std::true_type {};

// next_poll is detected by name, so a hook with a lossy or non-const
// signature is a compile error below rather than a silent fall-back to
// polling.
template <class T, class = void>
struct traits_have_next_poll : std::false_type {};
template <class T>
struct traits_have_next_poll<T, std::void_t<decltype(&T::next_poll)>>
    : std::true_type {};

// The exact hook type, checked only when the hook exists.
template <class T, bool kHasHook>
struct next_poll_signature_ok : std::true_type {};
template <class T>
struct next_poll_signature_ok<T, true>
    : std::is_same<decltype(&T::next_poll),
                   std::int64_t (T::*)(const typename T::state&, std::int64_t)
                       const> {};
}  // namespace detail

template <class Traits>
class soa_run final : public detail::run_base<soa_run<Traits>> {
  using base = detail::run_base<soa_run<Traits>>;
  friend base;

  // The SoA layout stores per-node state as one contiguous array and
  // copies it wholesale across shard boundaries; a non-trivially-copyable
  // member would silently break that, and a fat state defeats the layout's
  // cache-density point. Shared configuration (schedules, tables) belongs
  // on the traits object, not in per-node state.
  static_assert(std::is_trivially_copyable_v<typename Traits::state>,
                "SoA Traits::state must be trivially copyable");
  static_assert(sizeof(typename Traits::state) <= 64,
                "SoA Traits::state must fit one cache line (<= 64 bytes); "
                "move shared data onto the traits object");

  static constexpr bool kCalendar =
      detail::traits_have_next_poll<Traits>::value;
  static_assert(detail::next_poll_signature_ok<Traits, kCalendar>::value,
                "next_poll must be exactly `std::int64_t next_poll(const "
                "state&, std::int64_t) const`");

 public:
  soa_run(const graph& g, const Traits& traits, node_id r,
          const run_options& opts, obs::span_profiler* profiler)
      : base(g, r, opts),
        traits_(traits),
        soa_loop_(opts.engine == step_engine::soa),
        step_threads_(soa_loop_ ? exec::resolve_threads(opts.step_threads)
                                : 1),
        grain_(opts.step_shard_grain > 0 ? opts.step_shard_grain
                                         : kDefaultGrain) {
    this->finish_setup(profiler);
    if (step_threads_ > 1) {
      // Pool and shard arenas are run-lifetime, sized once from the graph
      // here (still inside the "setup" span's wall-clock): the sharded
      // step loop below never allocates. Serial runs (step_threads == 1)
      // and the reference loop never shard and skip all of it.
      pool_ = std::make_unique<exec::thread_pool>(step_threads_ - 1);
      const auto n = static_cast<std::size_t>(this->n_);
      p1_tx_arena_.resize(n);
      p1_msg_arena_.resize(n);
      p1_counts_.assign(static_cast<std::size_t>(step_threads_), 0);
      p2_scratch_.resize(static_cast<std::size_t>(step_threads_));
      for (shard_scratch& sc : p2_scratch_) {
        sc.rx.assign(n, detail::reception{});
        sc.touched.assign(n + 1, 0);
      }
      p2_bounds_.reserve(static_cast<std::size_t>(step_threads_) + 1);
    }
    if (soa_loop_) due_.reserve(static_cast<std::size_t>(this->n_));
    if constexpr (kCalendar) {
      if (soa_loop_) {
        const auto n = static_cast<std::size_t>(this->n_);
        wake_.assign(n, kWakeOnReceive);
        head_.fill(-1);
        next_.assign(n, -1);
        prev_.assign(n, kUnlinked);
        due_words_.assign((n + 63) / 64, 0);
        reschedule(0, -1);  // the source, the only node awake at setup
      }
    }
  }

  using base::run;

 private:
  // Work below this many units (phase 1: awake nodes; phase 2: scanned
  // out-edges) per shard is cheaper to run serially than to fork/join.
  static constexpr std::int64_t kDefaultGrain = 4096;

  using base::idx;

  void init_nodes(const protocol_params& params) {
    states_.resize(static_cast<std::size_t>(this->n_));
    for (node_id v = 0; v < this->n_; ++v) {
      traits_.init(&states_[idx(v)], this->labels_[idx(v)], params);
    }
  }

  void proto_begin_step(std::int64_t step) {
    if constexpr (detail::traits_have_begin_step<Traits>::value) {
      traits_.begin_step(step);
    }
  }
  std::optional<message> proto_step(node_id v, const node_context& ctx) {
    return traits_.on_step(&states_[idx(v)], ctx);
  }
  void proto_receive(node_id v, const node_context& ctx, const message& m) {
    traits_.on_receive(&states_[idx(v)], ctx, m);
    if constexpr (kCalendar) {
      if (soa_loop_) reschedule(v, ctx.step);
    }
  }
  bool proto_informed(node_id v) { return traits_.informed(states_[idx(v)]); }
  bool proto_halted(node_id v) { return traits_.halted(states_[idx(v)]); }
  void proto_restart(node_id v, const node_context& ctx) {
    traits_.on_restart(&states_[idx(v)], ctx);
  }

  // radiocast-analyze: hot-path-begin -- the sharded step loop; no
  // allocation, formatting, throwing, or stream I/O (RC_* args exempt).
  // The pool and every shard arena are built once in the constructor.

  // Calendar bookkeeping (traits with next_poll; see the header comment).
  // Asks node v when it next needs an on_step after step `after`, and
  // queues that step unless the entry is already queued or lies past the
  // step cap. A wake once queued stays queued until its step is drained,
  // and every later answer lies past that step, so an unchanged answer
  // means "still queued".
  void reschedule(node_id v, std::int64_t after) {
    const std::int64_t w = traits_.next_poll(states_[idx(v)], after);
    RC_CHECK_MSG(w > after, "next_poll must answer a step after its argument");
    if (w == wake_[idx(v)]) return;  // (w, v) is still queued
    if (prev_[idx(v)] != kUnlinked) unlink(v);
    wake_[idx(v)] = w;
    if (w >= this->opts_.max_steps) return;
    if (w - after < kWheelSlots) {
      node_id& head = head_[slot(w)];
      next_[idx(v)] = head;
      prev_[idx(v)] = -1;
      if (head >= 0) prev_[idx(head)] = v;
      head = v;
    } else {
      overflow_.push_back({w, v});
      std::push_heap(overflow_.begin(), overflow_.end(), cal_later);
    }
  }

  // Takes v out of the bucket of its current wake.
  void unlink(node_id v) {
    const node_id p = prev_[idx(v)];
    const node_id q = next_[idx(v)];
    if (p >= 0) {
      next_[idx(p)] = q;
    } else {
      head_[slot(wake_[idx(v)])] = q;
    }
    if (q >= 0) prev_[idx(q)] = p;
    prev_[idx(v)] = kUnlinked;
  }

  static std::size_t slot(std::int64_t step) {
    return static_cast<std::size_t>(step) % kWheelSlots;
  }

  // Collects this step's wakes into due_, sorted by node, dropping nodes
  // that are not awake (crashed, or evicted by an amnesia restart). The
  // overflow pops first, in (step, node) order, skipping stale entries
  // (a superseded wake, or a node the wheel holds), and duplicates (a wake
  // that moved away and back queues twice). Then the bucket drains whole.
  void collect_due(std::int64_t step) {
    due_.clear();
    while (!overflow_.empty() && overflow_.front().step <= step) {
      const node_id v = overflow_.front().node;
      std::pop_heap(overflow_.begin(), overflow_.end(), cal_later);
      overflow_.pop_back();
      if (wake_[idx(v)] != step || !this->awake_.test_unchecked(idx(v)) ||
          prev_[idx(v)] != kUnlinked) {
        continue;
      }
      if (!due_.empty() && due_.back() == v) continue;
      due_.push_back(v);
    }
    node_id& head = head_[slot(step)];
    for (node_id v = head; v >= 0; v = next_[idx(v)]) {
      prev_[idx(v)] = kUnlinked;
      if (this->awake_.test_unchecked(idx(v))) due_.push_back(v);
    }
    head = -1;
    sort_due();
  }

  // Sorts due_ ascending: std::sort while it is short next to the node
  // count, else one pass scattering it into due_words_ and one scan of the
  // touched word range, which leaves the mask clear again.
  void sort_due() {
    if (due_.size() * 16 < due_words_.size()) {
      std::sort(due_.begin(), due_.end());
      return;
    }
    std::size_t lo = due_words_.size();
    std::size_t hi = 0;
    for (const node_id v : due_) {
      const std::size_t w = idx(v) / 64;
      due_words_[w] |= std::uint64_t{1} << (idx(v) % 64);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    due_.clear();
    for (std::size_t w = lo; w <= hi; ++w) {
      std::uint64_t bits = due_words_[w];
      due_words_[w] = 0;
      while (bits != 0) {
        due_.push_back(static_cast<node_id>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  }

  // The polling walk's visit list (traits without next_poll): every awake
  // node into due_, ascending.
  void collect_awake() {
    due_.clear();
    this->for_each_awake([this](node_id v) { due_.push_back(v); });
  }

  // A recovered node's state changed under the calendar (amnesia) or sat
  // out its wakes (retain): ask again, allowing a wake this very step.
  void reschedule_recoveries(std::int64_t step) {
    for (const fault::node_recovery& r : this->step_faults_buf_.recoveries) {
      if (this->awake_.test(idx(r.node))) reschedule(r.node, step - 1);
    }
  }

  // verify_sleepers for the calendar: every awake node NOT due this step
  // gets on_step on a copy of its state and generator. Transmitting or
  // drawing is a sleep-contract violation — the hint answered too late.
  void sweep_calendar_sleepers(std::int64_t step) {
    std::size_t d = 0;
    this->for_each_awake([&](node_id v) {
      while (d < due_.size() && due_[d] < v) ++d;
      if (d < due_.size() && due_[d] == v) return;
      typename Traits::state copy = states_[idx(v)];
      rng gen = this->gens_[idx(v)];
      node_context ctx{step, &gen, nullptr};
      const std::optional<message> decision = traits_.on_step(&copy, ctx);
      RC_CHECK_MSG(!decision.has_value(),
                   "sleep contract violated: node " + std::to_string(v) +
                       " transmitted at step " + std::to_string(step) +
                       " while the calendar held it asleep (wake " +
                       std::to_string(wake_[idx(v)]) + ")");
      RC_CHECK_MSG(gen == this->gens_[idx(v)],
                   "sleep contract violated: node " + std::to_string(v) +
                       " drew randomness at step " + std::to_string(step) +
                       " while the calendar held it asleep (wake " +
                       std::to_string(wake_[idx(v)]) + ")");
    });
  }

  // Phase 1: transmit decisions over `list` — every awake node, or the
  // nodes due under the calendar — sharded when there is enough work,
  // serial otherwise (and always serial when metrics are on; see the
  // header comment). Both paths are bit-identical.
  void phase_one(const std::vector<node_id>& list, std::int64_t step) {
    const auto list_sz = static_cast<std::int64_t>(list.size());
    int shards = 1;
    if (step_threads_ > 1 && this->opts_.metrics == nullptr &&
        list_sz >= 2 * grain_) {
      shards = static_cast<int>(
          std::min<std::int64_t>(step_threads_, list_sz / grain_));
    }
    if (shards < 2) {
      for (const node_id v : list) {
        this->template step_node</*check_spontaneous=*/false>(v, step);
      }
      return;
    }
    exec::run_shards(*pool_, shards, [&](int s) {
      const auto lo =
          static_cast<std::size_t>(list_sz * s / shards);
      const auto hi =
          static_cast<std::size_t>(list_sz * (s + 1) / shards);
      // Shard s's transmitters and their messages land at arena offset lo
      // — its slice of the list emits at most hi − lo of them, so slices
      // never overlap.
      std::size_t count = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const node_id v = list[i];
        // ctx.metrics is null by the gate above — identical to what the
        // serial path would pass.
        node_context ctx{step, &this->gens_[idx(v)], nullptr};
        std::optional<message> decision = traits_.on_step(&states_[idx(v)], ctx);
        if (!decision) continue;
        decision->from = this->labels_[idx(v)];
        p1_tx_arena_[lo + count] = v;
        p1_msg_arena_[lo + count] = *decision;
        ++count;
      }
      p1_counts_[static_cast<std::size_t>(s)] = count;
    });
    // Ordered merge: shard s covered an ascending contiguous slice of the
    // sorted list, so shard-order concatenation is the serial visit order —
    // transmitters_, tx_msgs_, the energy counts, and the trace all match
    // serial.
    for (int s = 0; s < shards; ++s) {
      const auto lo = static_cast<std::size_t>(list_sz * s / shards);
      const std::size_t count = p1_counts_[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < count; ++i) {
        const node_id v = p1_tx_arena_[lo + i];
        const message& m = p1_msg_arena_[lo + i];
        this->transmitters_.push_back(v);
        this->tx_msgs_.push_back(m);
        ++this->result_.transmissions_per_node[idx(v)];
        if (this->opts_.sink != nullptr) {
          this->opts_.sink->record({step, trace_event::type::transmit, v, m});
        }
      }
    }
  }

  // Phase 2: reception scan over transmitters' neighborhoods — sharded by
  // out-degree sum when there is enough work. See the header comment for
  // the ordered-merge bit-identity argument.
  void phase_two() {
    std::int64_t work = 0;
    int shards = 1;
    if (step_threads_ > 1 && !this->transmitters_.empty()) {
      for (const node_id t : this->transmitters_) {
        work += static_cast<std::int64_t>(this->g_.out_row(t).size());
      }
      if (work >= 2 * grain_) {
        shards = static_cast<int>(
            std::min<std::int64_t>(step_threads_, work / grain_));
      }
    }
    if (shards < 2) {
      this->touched_count_ =
          this->phase_two_hoisted(0, this->transmitters_.size(),
                                  this->rx_.data(), this->touched_.data());
      return;
    }

    // Greedy contiguous partition of the transmitter list, balanced by
    // out-degree sum. Deterministic: a function of transmitters_ and the
    // graph only.
    p2_bounds_.clear();
    p2_bounds_.push_back(0);
    const std::int64_t target = (work + shards - 1) / shards;
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < this->transmitters_.size(); ++i) {
      acc += static_cast<std::int64_t>(
          this->g_.out_row(this->transmitters_[i]).size());
      if (acc >= target && i + 1 < this->transmitters_.size() &&
          static_cast<int>(p2_bounds_.size()) < shards) {
        p2_bounds_.push_back(i + 1);
        acc = 0;
      }
    }
    p2_bounds_.push_back(this->transmitters_.size());
    const auto used = static_cast<int>(p2_bounds_.size()) - 1;

    exec::run_shards(*pool_, used, [&](int s) {
      // used ≤ shards ≤ step_threads_, so the constructor-built scratch
      // set always covers s; nothing here allocates.
      auto& sc = p2_scratch_[static_cast<std::size_t>(s)];
      sc.count = this->phase_two_hoisted(
          p2_bounds_[static_cast<std::size_t>(s)],
          p2_bounds_[static_cast<std::size_t>(s) + 1], sc.rx.data(),
          sc.touched.data());
    });

    // Ordered merge into the run's reception records (see header comment;
    // debug_unordered_merge deliberately reverses the order so the chaos
    // harness can prove the bit-identity invariant bites). Each shard
    // record is cleared as it is consumed.
    detail::reception* const rx = this->rx_.data();
    node_id* const out = this->touched_.data();
    std::size_t nt = 0;
    for (int k = 0; k < used; ++k) {
      const int s = this->opts_.debug_unordered_merge ? used - 1 - k : k;
      auto& sc = p2_scratch_[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < sc.count; ++i) {
        const node_id v = sc.touched[i];
        const detail::reception part =
            std::exchange(sc.rx[idx(v)], detail::reception{});
        nt = detail::add_arrivals(rx, out, nt, v, part.last_sender,
                                  part.arrivals);
      }
    }
    this->touched_count_ = nt;
  }

  // verify_sleepers: every reception record, the run's and each shard's,
  // is back to zero once the step's receptions are committed.
  void check_receptions_cleared() const {
    const auto cleared = [](const std::vector<detail::reception>& rx) {
      return std::all_of(rx.begin(), rx.end(), [](const detail::reception& r) {
        return r.arrivals == 0 && r.last_sender == 0;
      });
    };
    RC_CHECK_MSG(cleared(this->rx_),
                 "a reception record outlived the step that wrote it");
    for (const shard_scratch& sc : p2_scratch_) {
      RC_CHECK_MSG(cleared(sc.rx),
                   "a phase-2 shard record outlived the merge");
    }
  }

  void run_engine() {
    switch (this->opts_.engine) {
      case step_engine::reference:
        this->run_reference();
        return;
      case step_engine::soa:
        run_soa();
        return;
    }
  }

  // The soa step loop: phase 1 costs O(|awake| + n/64), or O(|due|) under
  // the calendar. Crashed nodes were already removed from the awake mask,
  // and dormant nodes are no-ops by contract — so the walk is bit-identical
  // to stepping all n. The loop starts on a cache line of its own: some
  // workloads moved by about 20 % on a 32-byte shift of this function
  // alone, and any edit linked before it shifts it.
  [[gnu::aligned(64)]] void run_soa() {
    for (std::int64_t step = 0; step < this->opts_.max_steps; ++step) {
      const std::int64_t collisions_before = this->result_.collisions;
      const std::int64_t deliveries_before = this->result_.deliveries;
      const std::int64_t suppressed_before =
          this->result_.suppressed_deliveries;

      if (this->faults_ != nullptr) this->apply_begin_step_faults(step);
      proto_begin_step(step);

      this->transmitters_.clear();
      this->tx_msgs_.clear();
      if constexpr (kCalendar) {
        if (this->faults_ != nullptr) reschedule_recoveries(step);
        collect_due(step);
        phase_one(due_, step);
        for (const node_id v : due_) reschedule(v, step);
      } else {
        collect_awake();
        phase_one(due_, step);
      }
      if (this->opts_.verify_sleepers) {
        this->sweep_sleepers(step);
        if constexpr (kCalendar) sweep_calendar_sleepers(step);
      }
      this->result_.transmissions +=
          static_cast<std::int64_t>(this->transmitters_.size());

      this->mark_transmitters();
      phase_two();

      this->commit_receptions(step);
      if (this->opts_.verify_sleepers) {
        check_receptions_cleared();
        RC_CHECK(this->awake_.count() ==
                 static_cast<std::size_t>(this->awake_count_));
      }
      if (this->opts_.metrics != nullptr) {
        this->push_step_metrics(collisions_before, deliveries_before,
                                suppressed_before);
      }
      if (this->step_epilogue(step)) break;
    }
  }

  // radiocast-analyze: hot-path-end

  Traits traits_;
  std::vector<typename Traits::state> states_;
  const bool soa_loop_;  // step_engine::soa: calendar + sharding
  const int step_threads_;
  const std::int64_t grain_;

  // Quiescence calendar, used only when kCalendar && soa_loop_ (see the
  // header comment); wake_ holds kWakeOnReceive for a node waiting on a
  // reception. The wheel's buckets are lists through next_/prev_ (−1 ends
  // a list; prev_ is kUnlinked for a node in no bucket).
  static constexpr std::int64_t kWheelSlots = 64;
  static constexpr node_id kUnlinked = -2;
  struct cal_entry {
    std::int64_t step;
    node_id node;
  };
  // Heap order: the earliest step on top, ties by ascending node.
  static bool cal_later(const cal_entry& a, const cal_entry& b) {
    return a.step != b.step ? a.step > b.step : a.node > b.node;
  }
  std::vector<std::int64_t> wake_;
  std::array<node_id, kWheelSlots> head_{};
  std::vector<node_id> next_;
  std::vector<node_id> prev_;
  std::vector<cal_entry> overflow_;  // binary min-heap, wakes ≥ 64 ahead
  // The step's phase-1 visit list: the due nodes under the calendar, every
  // awake node otherwise. Reserved to n for either walk.
  std::vector<node_id> due_;
  std::vector<std::uint64_t> due_words_;  // sort_due's mask, clear between

  // Intra-step pool and shard arenas, built once in the constructor when
  // step_threads_ > 1 (serial runs never pay for them) and reused for the
  // run's lifetime — the step loop itself never allocates. Phase 1 shard s
  // writes its transmitters and their messages at arena offset lo(s): its
  // slice of the visit list is [lo, hi) so slices cannot overlap, and the
  // ordered merge reads them back in shard order.
  std::unique_ptr<exec::thread_pool> pool_;
  std::vector<node_id> p1_tx_arena_;
  std::vector<message> p1_msg_arena_;
  std::vector<std::size_t> p1_counts_;
  // A phase-2 shard's records (all zero outside phase 2, like rx_) and its
  // first-touch list, touched[0, count).
  struct shard_scratch {
    std::vector<detail::reception> rx;
    std::vector<node_id> touched;
    std::size_t count = 0;
  };
  std::vector<shard_scratch> p2_scratch_;
  std::vector<std::size_t> p2_bounds_;
};

/// Runs one broadcast with the SoA engine instantiated for `Traits`.
/// Protocol soa_runner entries call this; the "run_broadcast" span is
/// already open (run_broadcast_with_r), so this opens only setup/step_loop.
template <class Traits>
run_result run_broadcast_soa(const graph& g, const Traits& traits, node_id r,
                             const run_options& opts) {
  obs::span_profiler* profiler =
      opts.profiler != nullptr ? opts.profiler : obs::global_profiler();
  soa_run<Traits> run(g, traits, r, opts, profiler);
  obs::scoped_span loop_span(profiler, "step_loop");
  return run.run();
}

/// The soa_entry of a protocol whose configured traits depend only on the
/// label bound: `MakeTraits(r)` is the one place that configuration
/// happens, shared with make_node (`make_traits_node(MakeTraits(params.r),
/// …)`).
template <auto MakeTraits>
run_result soa_entry_for(const graph& g, const protocol&, node_id r,
                         const run_options& opts) {
  return run_broadcast_soa(g, MakeTraits(r), r, opts);
}

/// One node of a traits protocol behind the protocol_node interface, for
/// code that drives nodes one by one: the lower-bound adversary, user code,
/// and virtual_view's adapter (the differential suite's virtual leg). It is
/// the only protocol_node subclass there can be. It holds one traits copy
/// and one state, and runs begin_step itself whenever it sees a new step —
/// before on_step, on_receive and on_restart alike, since a node can
/// receive in a step in which it was not polled and a hook may read the
/// hoist.
template <class Traits>
class traits_node final : public protocol_node {
 public:
  traits_node(Traits traits, node_id label, const protocol_params& params)
      : traits_(std::move(traits)) {
    traits_.init(&state_, label, params);
  }

  std::optional<message> on_step(const node_context& ctx) override {
    hoist(ctx.step);
    return traits_.on_step(&state_, ctx);
  }
  void on_receive(const node_context& ctx, const message& msg) override {
    hoist(ctx.step);
    traits_.on_receive(&state_, ctx, msg);
  }
  bool informed() const override { return traits_.informed(state_); }
  bool halted() const override { return traits_.halted(state_); }
  void on_restart(const node_context& ctx) override {
    hoist(ctx.step);
    traits_.on_restart(&state_, ctx);
  }

 private:
  void hoist(std::int64_t step) {
    if constexpr (detail::traits_have_begin_step<Traits>::value) {
      if (step == hoisted_step_) return;
      traits_.begin_step(step);
      hoisted_step_ = step;
    }
  }

  Traits traits_;
  typename Traits::state state_{};
  std::int64_t hoisted_step_ = std::numeric_limits<std::int64_t>::min();
};

template <class Traits>
std::unique_ptr<protocol_node> make_traits_node(Traits traits, node_id label,
                                                const protocol_params& params) {
  return std::make_unique<traits_node<Traits>>(std::move(traits), label,
                                               params);
}

}  // namespace radiocast
