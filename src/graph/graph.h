// Graph substrate for radio network simulation.
//
// Networks are modeled exactly as in the paper: nodes carry distinct labels
// from {0, …, r} with r linear in n, node 0 is the broadcast source, and the
// topology is a connected graph (undirected in general; Section 2 of the
// paper additionally analyzes directed graphs, which we support as well).
//
// Storage is two-phase (see docs/PERFORMANCE.md):
//   * building — add_edge appends one 8-byte entry to a flat edge buffer
//     (an undirected edge is stored once); duplicates are tolerated. Reads
//     in this phase go through a CSR view bucketed from the buffer by the
//     same routine finalize() uses, rebuilt only after new adds;
//   * finalized — finalize() buckets the buffer into compressed-sparse-row
//     form with a counting sort (degree count, prefix sum, stable scatter
//     in add order), dedupes every row (first occurrence wins, exactly
//     what the old per-add duplicate scan produced) and releases the
//     buffer: one flat node_id array plus an offset table per direction.
//     A transmitter's out-neighborhood is then a contiguous slice, so the
//     simulator's reception sweep walks memory sequentially.
// The simulator requires a finalized graph; every generator returns one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/assert.h"

namespace radiocast {

/// Node identifier; doubles as the node's label in the paper's model.
using node_id = std::int32_t;

/// A simple graph (no self-loops, no parallel edges) with both out- and
/// in-neighborhoods materialized so the radio simulator can resolve
/// receptions in O(in-degree). For undirected graphs the two neighborhoods
/// coincide (and share storage once finalized).
class graph {
 public:
  /// One add_edge call in the building buffer: the arc u→v, or the
  /// undirected edge {u, v} stored once.
  struct edge {
    node_id u = 0;
    node_id v = 0;
  };

  /// Creates an undirected graph on nodes {0, …, n−1}.
  static graph undirected(node_id n);

  /// Creates a directed graph on nodes {0, …, n−1}.
  static graph directed(node_id n);

  node_id node_count() const noexcept { return n_; }

  /// Number of edges (each undirected edge counted once). Before
  /// finalize(), duplicate add_edge calls are still counted; the value is
  /// exact once the graph is finalized.
  std::size_t edge_count() const noexcept {
    return finalized_ ? edge_count_ : edges_.size();
  }

  bool is_directed() const noexcept { return directed_; }

  /// Adds edge u→v (and v→u when undirected); rejects self-loops,
  /// out-of-range endpoints, and finalized graphs. Duplicates are
  /// tolerated here and removed by finalize() — there is no per-add
  /// duplicate scan, so dense construction is linear in adds, not
  /// quadratic in degree.
  void add_edge(node_id u, node_id v);

  /// As add_edge, for callers that can prove each edge is added once
  /// (e.g. complete layered networks). Adding a duplicate through this
  /// entry is a caller bug; finalize() silently repairs it.
  void add_edge_unchecked(node_id u, node_id v) {
    RC_REQUIRE_MSG(!finalized_, "graph is finalized; no further edges");
    RC_REQUIRE(valid(u) && valid(v));
    RC_REQUIRE_MSG(u != v, "self-loops are not allowed");
    edges_.push_back({u, v});
  }

  /// Reserves buffer room for `count` add_edge calls, so a generator that
  /// knows its edge count builds without regrowing the buffer.
  void reserve_edges(std::size_t count) { edges_.reserve(count); }

  /// True iff u→v is an edge (O(out-degree of u)).
  bool has_edge(node_id u, node_id v) const;

  /// Buckets the edge buffer into deduped CSR rows (first occurrence
  /// wins), recomputes edge_count(), and releases the buffer (a small one
  /// is kept for the next graph built on this thread). Further
  /// add_edge calls throw. Idempotent. Every generator calls this before
  /// returning; hand-built graphs must call it before simulation.
  void finalize();

  bool finalized() const noexcept { return finalized_; }

  /// The building buffer: one entry per add_edge call, in add order
  /// (sort_adjacency() reorders it). Empty once finalized. Generators run
  /// union-find over it instead of reading rows.
  std::span<const edge> pending_edges() const noexcept { return edges_; }

  /// Before finalize() the rows come from a view of the buffer, deduped as
  /// finalize() would; the first read after an add rebuilds it, so
  /// concurrent reads of a graph still being built are not safe.
  std::span<const node_id> out_neighbors(node_id v) const {
    if (!finalized_) refresh_view();
    return row(out_off_, out_adj_, v);
  }

  std::span<const node_id> in_neighbors(node_id v) const {
    if (!directed_) return out_neighbors(v);
    if (!finalized_) refresh_view();
    return row(in_off_, in_adj_, v);
  }

  /// out_neighbors(v) of a finalized graph. The step loops read rows
  /// through this: it never rebuilds the view, so a loop calling it holds
  /// no call that may write memory and keeps its invariant loads hoisted
  /// (with that call in the loop, bcast_mega's step loop ran ~15 % slower).
  std::span<const node_id> out_row(node_id v) const {
    RC_REQUIRE(finalized_);
    return row(out_off_, out_adj_, v);
  }

  /// First flat CSR slot of v's out-row (finalized graphs only): the i-th
  /// entry of out_neighbors(v) occupies edge slot out_edge_base(v) + i.
  /// Slots index the packed per-edge masks in the simulator (down edges).
  std::size_t out_edge_base(node_id v) const {
    RC_REQUIRE(finalized_ && valid(v));
    return out_off_[static_cast<std::size_t>(v)];
  }

  /// Total number of out-edge slots (finalized graphs only): directed edge
  /// count, or twice the edge count for undirected graphs.
  std::size_t out_slot_count() const {
    RC_REQUIRE(finalized_);
    return out_adj_.size();
  }

  node_id out_degree(node_id v) const {
    return static_cast<node_id>(out_neighbors(v).size());
  }

  node_id in_degree(node_id v) const {
    return static_cast<node_id>(in_neighbors(v).size());
  }

  /// Sorts all adjacency lists ascending (useful for deterministic output
  /// and binary-searchable membership). Idempotent; works in either
  /// storage phase. While building it sorts the buffer (undirected edges
  /// as (min, max)), so later adds follow each row's sorted prefix.
  void sort_adjacency();

  /// Returns the directed view of this graph: undirected graphs are
  /// reinterpreted with each edge replaced by two opposite arcs (this is
  /// exactly the reduction used at the start of the paper's Section 2).
  /// The returned graph is finalized.
  graph as_directed() const;

  /// Renders the graph in Graphviz DOT format (for the examples).
  std::string to_dot(const std::string& name = "radio") const;

  /// Serializes as "u v" edge lines, one per edge.
  std::string to_edge_list() const;

  /// Parses the edge-list format produced by to_edge_list(). The returned
  /// graph is finalized.
  static graph from_edge_list(node_id n, const std::string& text,
                              bool directed_edges = false);

 private:
  explicit graph(node_id n, bool directed);

  bool valid(node_id v) const noexcept { return v >= 0 && v < n_; }

  std::span<const node_id> row(const std::vector<std::size_t>& off,
                               const std::vector<node_id>& adj,
                               node_id v) const {
    RC_REQUIRE(valid(v));
    const auto i = static_cast<std::size_t>(v);
    return {adj.data() + off[i], off[i + 1] - off[i]};
  }

  // Buckets edges_ into the CSR arrays (deduped rows in add order) unless
  // they already hold the view of the buffer as it is.
  void refresh_view() const;

  node_id n_ = 0;
  bool directed_ = false;
  bool finalized_ = false;
  std::size_t edge_count_ = 0;  // set by finalize()
  // Building phase: the edge buffer, one entry per add_edge call.
  std::vector<edge> edges_;
  // CSR — row v of `*_adj_` is [*_off_[v], *_off_[v+1]); in_* only for
  // directed graphs (undirected in-neighborhoods equal the out-rows).
  // While building they are the view of edges_ bucketed when it held
  // view_edges_ entries; mutable so const reads can refresh it.
  static constexpr std::size_t kNoView = ~std::size_t{0};
  mutable std::size_t view_edges_ = kNoView;
  mutable std::vector<std::size_t> out_off_;
  mutable std::vector<std::size_t> in_off_;
  mutable std::vector<node_id> out_adj_;
  mutable std::vector<node_id> in_adj_;
};

}  // namespace radiocast
