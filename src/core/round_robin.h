// Round-robin deterministic broadcasting.
//
// Every informed node transmits exactly when the global step number is
// congruent to its label modulo r+1, so no two nodes ever collide and the
// informed frontier advances at least one layer per round of r+1 steps:
// time ≤ (r+1)·D = O(nD). The paper interleaves this scheme with
// Select-and-Send to obtain O(n·min(D, log n)) (Section 4.2).
#pragma once

#include "sim/protocol.h"

namespace radiocast {

class round_robin_protocol final : public protocol {
 public:
  round_robin_protocol() = default;

  std::string name() const override { return "round-robin"; }
  bool deterministic() const override { return true; }
  /// Runs every step engine on the protocol's traits (per-node state:
  /// label + informed flag), and builds their bank.
  const soa_entry* soa_runner() const override;
};

}  // namespace radiocast
