// Selective-family broadcasting (the machinery of Clementi–Monti–Silvestri
// [10], which the paper's Theorem 2 lower-bounds against).
//
// Fix an (r+1, k)-selective family F = {F_0, …, F_{|F|−1}} over the label
// space. In step t every informed node v transmits iff v ∈ F_{t mod |F|}.
// Whenever an uninformed node u has a nonempty set X of informed
// in-neighbors with |X| ≤ k, some set of the family intersects X in exactly
// one node within one pass, so u is informed after at most |F| further
// steps once its informed in-neighborhood stabilizes: broadcast completes
// in O(D·|F|) on networks of max in-degree < k.
//
// This protocol exists for two reasons: it is a natural deterministic
// baseline on bounded-degree networks, and it makes the connection between
// the paper's lower-bound combinatorics and an actual algorithm concrete —
// the same objects that jam the adversary's layers, run forwards, broadcast.
//
// The family is built by the residue-class construction
// (modular_selective_family) with enough primes for the requested k;
// constructors verify selectivity exhaustively when the label space is
// small enough and otherwise rely on the construction's pair-separation
// argument (two labels collide mod q for at most log_q(r) primes).
#pragma once

#include <memory>
#include <vector>

#include "adversary/selective_family.h"
#include "sim/protocol.h"

namespace radiocast {

struct selective_soa_traits;  // the protocol itself (selective_broadcast.cpp)

class selective_broadcast_protocol final : public protocol {
 public:
  /// `r` is the label bound; `k` must exceed the maximum in-degree of any
  /// node in the target network (k ≥ Δ+1 guarantees selection).
  selective_broadcast_protocol(node_id r, int k);

  std::string name() const override;
  bool deterministic() const override { return true; }
  std::unique_ptr<protocol_node> make_node(
      node_id label, const protocol_params& params) const override;
  /// Runs every step engine on the protocol's traits (per-node state:
  /// label + informed flag; the family is shared).
  soa_entry soa_runner() const override;

  /// Length of one pass over the family.
  std::int64_t family_size() const;

  /// The underlying family (for tests).
  const set_family& family() const { return *family_; }

 private:
  /// The configured traits for label bound r (≤ the constructor's r) —
  /// the one place make_node and the SoA entry get them from.
  selective_soa_traits traits(node_id r) const;
  static run_result soa_entry_fn(const graph& g, const protocol& proto,
                                 node_id r, const run_options& opts);

  node_id r_;
  int k_;
  std::shared_ptr<const set_family> family_;
};

}  // namespace radiocast
