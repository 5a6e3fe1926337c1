// Bar-Yehuda–Goldreich–Itai randomized broadcasting (the paper's baseline).
//
// Procedure Decay: an informed node transmits in consecutive steps, quitting
// after each transmission with probability 1/2 (and unconditionally after
// 2⌈log(r+1)⌉ steps). Broadcast schedules Decay in synchronized phases of
// length 2⌈log(r+1)⌉: at each phase start, every node informed before the
// phase draws its geometric cutoff and participates.
//
// Expected broadcast time O(D log n + log² n) — the bound the paper's
// optimal algorithm improves to O(D log(n/D) + log² n).
#pragma once

#include "sim/protocol.h"

namespace radiocast {

class decay_protocol final : public protocol {
 public:
  decay_protocol() = default;

  std::string name() const override { return "bgi-decay"; }
  bool deterministic() const override { return false; }
  std::unique_ptr<protocol_node> make_node(
      node_id label, const protocol_params& params) const override;
  /// Runs every step engine on the protocol's traits (POD per-node state;
  /// make_node wraps the same traits).
  soa_entry soa_runner() const override;
};

}  // namespace radiocast
