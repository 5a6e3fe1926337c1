// Interleaved Round-Robin / Select-and-Send (paper, Section 4.2, remark).
//
// Even global steps run round-robin (O(nD) alone), odd steps run
// Select-and-Send (O(n log n) alone); the two streams never interact, so
// all nodes are informed after 2·min(T_rr, T_sas) + O(1) steps =
// O(n · min(D, log n)).
//
// The round-robin stream uses the node's combined informed state (a node
// woken through either stream joins the round-robin schedule), which can
// only speed it up; the Select-and-Send stream runs exactly as it would in
// isolation on its own step subsequence.
#pragma once

#include "sim/protocol.h"

namespace radiocast {

class interleaved_protocol final : public protocol {
 public:
  interleaved_protocol() = default;

  std::string name() const override { return "interleaved(rr+sas)"; }
  bool deterministic() const override { return true; }
  std::unique_ptr<protocol_node> make_node(
      node_id label, const protocol_params& params) const override;
  /// Runs every step engine on the protocol's traits (POD per-node state;
  /// make_node wraps the same traits).
  soa_entry soa_runner() const override;
};

}  // namespace radiocast
