// Algorithm Select-and-Send (paper, Section 4.2, Theorem 3).
//
// Deterministic O(n log n) broadcasting on arbitrary undirected networks:
// a token performs a DFS traversal; at each visited node the next unvisited
// neighbor is found with Procedure Echo and Algorithm Binary-Selection
// (core/echo.h). The initial move out of the source reserves time slot 2i
// for the potential neighbor with label i and picks the first responder.
//
// Roles a node can play over its lifetime:
//   * source: announces, collects the first presence reply, hands the token
//     to the lowest-labeled neighbor j, and uses j as its Echo helper;
//   * driver (token holder): runs a Binary-Selection (soa_selection); on
//     success passes the token forward, on an empty neighbor set returns it
//     to its parent and stops;
//   * responder: any node replies to echo orders while unvisited, and
//     replies as the helper in echo step 2 whenever an order names it —
//     even after it stopped (the helper reply is part of the *caller's*
//     procedure).
//
// Broadcasting time (all nodes informed) is reached strictly before full
// termination (token back at the source); run with
// stop_condition::all_halted to measure the full O(n log n) traversal.
#pragma once

#include "sim/protocol.h"

namespace radiocast {

class select_and_send_protocol final : public protocol {
 public:
  select_and_send_protocol() = default;

  std::string name() const override { return "select-and-send"; }
  bool deterministic() const override { return true; }
  /// Runs every step engine on the protocol's traits (POD per-node state),
  /// and builds their bank.
  const soa_entry* soa_runner() const override;
};

}  // namespace radiocast
