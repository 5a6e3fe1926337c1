// The paper's optimal randomized broadcasting algorithm (Section 2).
//
// Procedure Stage(D, i) — one stage of log(r/D)+2 steps:
//     for l = 0 … log(r/D): transmit with probability 1/2ˡ
//     transmit with probability p_i            (universal sequence value)
//
// Procedure Randomized-Broadcasting(D):
//     the source transmits, then stages i = 1 … 4660·D are run; a node
//     participates in stage i iff it received the source message before
//     stage i began.
//
// Algorithm Optimal-Randomized-Broadcasting removes the knowledge of D by
// doubling: Randomized-Broadcasting(2ⁱ) for i = 1 … log r, repeated forever
// (Corollary 1 iterates the algorithm).
//
// Expected broadcast time O(D log(n/D) + log² n) — optimal by the lower
// bounds of Alon et al. and Kushilevitz–Mansour. The analysis (and our
// simulator) also covers directed networks of directed radius D.
//
// Practical notes, recorded in DESIGN.md:
//   * the constant 4660 comes from the high-probability analysis; runs stop
//     at completion, and `stage_budget` makes the constant configurable;
//   * the paper falls back to BGI's procedure when D ≤ 32·r^(2/3) — a
//     regime that covers ALL laptop-scale instances, again because the
//     constant 32 is an analysis artifact. `paper_bgi_threshold` enables
//     the verbatim rule; experiments exercise the stage machinery directly;
//   * `ablate_universal_step` drops the p_i step (experiment E8): the
//     remaining truncated-decay stages stall on nodes with many more than
//     r/D informed in-neighbors, which is exactly why the paper adds it.
#pragma once

#include <memory>

#include "core/universal_sequence.h"
#include "sim/protocol.h"

namespace radiocast {

struct kp_options {
  /// If > 0: run Randomized-Broadcasting(D) with this D (rounded up to a
  /// power of two). If ≤ 0: the doubling wrapper over D = 2, 4, …, r.
  int known_d = -1;

  /// Stages per unit of D in each Randomized-Broadcasting(D) block
  /// (the paper's constant is 4660).
  std::int64_t stage_budget = 4660;

  /// Apply the paper's verbatim fallback to BGI Decay when
  /// known_d ≤ 32·r^(2/3). Only meaningful with known_d > 0.
  bool paper_bgi_threshold = false;

  /// Drop the universal-sequence step from every stage (ablation).
  bool ablate_universal_step = false;
};

struct kp_soa_traits;  // the protocol itself (kp_randomized.cpp)

class kp_randomized_protocol final : public protocol {
 public:
  /// `r` is the label bound the nodes know (the schedule depends on it and
  /// is shared across nodes, so it is fixed at construction).
  explicit kp_randomized_protocol(node_id r, kp_options options = {});
  ~kp_randomized_protocol() override;

  std::string name() const override;
  bool deterministic() const override { return false; }
  std::unique_ptr<protocol_node> make_node(
      node_id label, const protocol_params& params) const override;
  /// Runs every step engine on the protocol's traits. In the BGI-fallback
  /// regime this returns Decay's entry, as make_node returns Decay's nodes.
  soa_entry soa_runner() const override;

  /// Total schedule period (the wrapper repeats with this period).
  std::int64_t schedule_period() const;

  struct schedule;  ///< implementation detail, public for the traits type

 private:
  /// The configured traits for label bound r (≤ the constructor's r) —
  /// the one place make_node and the SoA entry get them from.
  kp_soa_traits traits(node_id r) const;
  static run_result soa_entry_fn(const graph& g, const protocol& proto,
                                 node_id r, const run_options& opts);

  node_id r_;
  kp_options options_;
  std::shared_ptr<const schedule> schedule_;
  bool use_bgi_fallback_ = false;
};

}  // namespace radiocast
