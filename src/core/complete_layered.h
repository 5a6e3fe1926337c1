// Algorithm Complete-Layered (paper, Section 4.3, Theorem 4).
//
// Deterministic O(n + D log n) broadcasting on undirected complete layered
// networks — the algorithm that refutes the claimed Ω(n log D) lower bound
// of Clementi–Monti–Silvestri for the undirected case.
//
// Phase 1 selects v₁ = the lowest-labeled neighbor of the source by
// reserving time slot 2i for label i (O(n) steps, paid once). Each later
// phase k+1 is O(log n): the chain head v_k wakes layer L_{k+1} (its first
// echo order doubles as the wake), runs Echo(v_{k−1}, L_{k+1}) plus
// Binary-Selection to pick v_{k+1}, hands leadership over, and orders layer
// L_{k−1} to stop. When the probe finds no new layer (k = D), the head
// orders its neighbors to stop and the algorithm terminates.
//
// Every informed node knows its layer number: each message carries its
// sender's layer (message::d) and a node joins layer d+1 on first contact.
// Membership in a phase's echo set is decided by layer number, which makes
// the algorithm robust to nodes of L_{k+1} being informed slightly early by
// overheard echo replies from L_k.
//
// PRECONDITION: the network must be complete layered (is_complete_layered);
// on other topologies the layer-number bookkeeping is meaningless.
#pragma once

#include "sim/protocol.h"

namespace radiocast {

class complete_layered_protocol final : public protocol {
 public:
  complete_layered_protocol() = default;

  std::string name() const override { return "complete-layered"; }
  bool deterministic() const override { return true; }
  std::unique_ptr<protocol_node> make_node(
      node_id label, const protocol_params& params) const override;
  /// Runs every step engine on the protocol's traits (POD per-node state;
  /// make_node wraps the same traits).
  soa_entry soa_runner() const override;
};

}  // namespace radiocast
