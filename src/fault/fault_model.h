// Fault injection: adversarial and stochastic perturbations of the radio
// model.
//
// The paper's model (§1) is ideal — synchronous, collision-iff-≥2, no
// failures. The radio literature's robustness folklore (Decay-style
// randomized protocols degrade gracefully; token protocols are brittle) is
// about what happens when that ideal breaks. This subsystem makes the break
// injectable and measurable: a `fault_model` plugs into
// `run_options::faults` and the simulator consults it at three points of
// each step:
//
//   1. `begin_step`  — before transmit decisions: the model reports node
//      crash-stops and edge up/down churn for this step; the simulator
//      applies them (crashed nodes neither transmit nor receive, down
//      edges carry no signal).
//   2. `filter_deliveries` — after collision resolution: the model sees
//      every would-be successful reception (exactly one transmitting
//      neighbor) and may suppress any subset. A suppressed listener hears
//      silence — indistinguishable from a collision, exactly like the ⊥
//      answers of the Theorem 2 jamming function (adversary/jamming.h).
//
// Faults only ever REMOVE deliveries; they never forge or corrupt
// messages. Silence is always a legal observation in the radio model, so
// every protocol remains well-defined under any fault model (it may merely
// fail to complete — which is the data).
//
// Determinism contract: `begin_run` receives the run seed and MUST reset
// all model state from it. The model draws randomness only from its own
// generator (salted independently of the per-node generators), so
// attaching a fault model never perturbs protocol coin flips: a model
// that suppresses nothing yields bit-identical `run_result`s to the
// fault-free run (guarded by tests/fault_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace radiocast::fault {

/// Run-level context handed to `begin_run`.
struct run_view {
  const graph* g = nullptr;
  std::uint64_t seed = 0;       ///< the run's root seed; models salt it
  std::int64_t max_steps = 0;   ///< the run's step cap
};

/// Per-step context. Snapshots are owned by the simulator and valid only
/// for the duration of the callback.
struct step_view {
  std::int64_t step = 0;
  const graph* g = nullptr;
  /// Per node: first step at which it became informed; −1 = uninformed.
  const std::vector<std::int64_t>* informed_at = nullptr;
  /// Per node: bit set once crash-stopped (includes crashes applied this
  /// step). Packed words (util/bitset.h) — probe with crashed->test(v).
  const util::bitset* crashed = nullptr;
};

/// A crashed node rejoining the computation (recovery models, recovery.h).
/// `amnesia` selects the restart semantics the simulator applies: true ⇒
/// protocol state is re-initialized via the traits' on_restart and the
/// node is evicted from the informed set (it must be re-informed); false ⇒
/// "retain" — state survived the outage and the node resumes where it was.
struct node_recovery {
  node_id node = -1;
  bool amnesia = false;
};

/// What a model wants to happen at the top of a step. The simulator owns
/// the buffers and applies the effects (idempotently: crashing a crashed
/// node or downing a down edge is a no-op; recovering a live node is a
/// no-op). Within one step crashes are applied before recoveries.
struct step_faults {
  std::vector<node_id> crashes;  ///< nodes that crash-stop now
  std::vector<node_recovery> recoveries;  ///< crashed nodes rejoining now
  std::vector<std::pair<node_id, node_id>> edges_down;  ///< signal cut
  std::vector<std::pair<node_id, node_id>> edges_up;    ///< signal restored

  void clear() {
    crashes.clear();
    recoveries.clear();
    edges_down.clear();
    edges_up.clear();
  }
};

/// One would-be successful reception of this step, offered to
/// `filter_deliveries` for suppression.
struct delivery_candidate {
  node_id listener = -1;
  node_id sender = -1;
  bool listener_informed = false;  ///< informed before this step's delivery
  bool suppressed = false;         ///< set by fault models to drop it
};

/// Interface of all fault models. Implementations: crash_model (crash.h),
/// loss_model (loss.h), jammer_model (jammer.h), churn_model (churn.h),
/// recovery_model (recovery.h), partition_model and frontier_cut_model
/// (partition.h), and composite_fault_model below.
class fault_model {
 public:
  virtual ~fault_model() = default;

  /// Short tag for tables and artifacts ("crash", "loss", "jam_greedy", …).
  virtual std::string name() const = 0;

  /// Resets ALL state from the run seed. Called once per run_broadcast,
  /// before any step; a model object is reusable across runs and trials.
  virtual void begin_run(const run_view& view) = 0;

  /// Called at the top of every step, before transmit decisions. Models
  /// append crash/churn effects to `out` (never cleared here — composites
  /// share one buffer).
  virtual void begin_step(const step_view& view, step_faults* out) {
    (void)view;
    (void)out;
  }

  /// Called once per step iff at least one reception would succeed. Models
  /// mark candidates `suppressed`; already-suppressed candidates must be
  /// left alone (and models should not spend randomness on them, so that
  /// composition order is the documented order of effects).
  virtual void filter_deliveries(const step_view& view,
                                 std::vector<delivery_candidate>* candidates) {
    (void)view;
    (void)candidates;
  }

  /// Crashed nodes this model still intends to recover (recovery models
  /// override this with their current down count). The simulator refuses
  /// to declare a run complete while recoveries are pending: a node that
  /// will rejoin — possibly with amnesia — may still need the message, so
  /// "every surviving node is informed" is only meaningful once the roster
  /// has settled. Models without recovery semantics return 0.
  virtual std::int64_t pending_recoveries() const { return 0; }

  /// A fresh instance with the same CONFIGURATION and no run state, for
  /// trial-parallel execution: parallel_run_trials (src/exec/) hands every
  /// worker its own clone so no model state is shared across threads.
  /// Because `begin_run` derives everything from the trial seed, a clone
  /// produces bit-identical fault schedules to the original. The default
  /// returns nullptr ("not cloneable"); such a model can only run serial
  /// batches. All built-in models override this.
  virtual std::unique_ptr<fault_model> clone() const { return nullptr; }
};

/// Deterministic seed derivation: every model mixes the run seed with its
/// own salt so that stacked models draw independent streams and none of
/// them touches the per-node protocol generators.
std::uint64_t mix_seed(std::uint64_t run_seed, std::uint64_t salt);

/// Applies several fault models in order: crashes and churn accumulate,
/// delivery filters chain (later models see — and must respect — earlier
/// suppressions). Children get independently derived seeds, so two
/// instances of the same model type stay decorrelated. Does not own the
/// children.
class composite_fault_model final : public fault_model {
 public:
  explicit composite_fault_model(std::vector<fault_model*> models);

  std::string name() const override;
  void begin_run(const run_view& view) override;
  void begin_step(const step_view& view, step_faults* out) override;
  void filter_deliveries(
      const step_view& view,
      std::vector<delivery_candidate>* candidates) override;
  /// Sum over children: any child still owing recoveries holds completion.
  std::int64_t pending_recoveries() const override;
  /// Deep clone: every child is cloned too (and owned by the clone, unlike
  /// the original's borrowed children). Null if any child is not cloneable.
  std::unique_ptr<fault_model> clone() const override;

 private:
  std::vector<fault_model*> models_;
  /// Set only on clones: storage keeping the cloned children alive.
  std::vector<std::unique_ptr<fault_model>> owned_;
};

}  // namespace radiocast::fault
