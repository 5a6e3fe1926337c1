// Property tests for every topology generator in src/graph/generators.h.
//
// Rather than pinning individual hand-picked graphs (graph_test.cpp does
// that), this suite sweeps each generator over a grid of parameters and
// randomized seeds and checks the invariants every generated graph must
// satisfy — simplicity (no self-loops, no parallel edges), undirected
// symmetry, connectivity, node/edge counts, degree bounds — plus each
// family's documented radius formula, validated against an independent
// brute-force BFS oracle written in this file (not the library's own
// bfs_distances, which it cross-checks as a side effect).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/analysis.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/assert.h"
#include "util/rng.h"

namespace radiocast {
namespace {

// ---------------------------------------------------------------------------
// Independent oracle: brute-force BFS over an edge set rebuilt from scratch.
// ---------------------------------------------------------------------------

// Distances from `source` computed without graph's adjacency accessors
// beyond a single pass that copies them into a plain edge list — so a bug
// in e.g. in_neighbors bookkeeping cannot hide from the comparison.
std::vector<int> oracle_distances(const graph& g, node_id source) {
  const node_id n = g.node_count();
  std::vector<std::vector<node_id>> adj(static_cast<std::size_t>(n));
  for (node_id u = 0; u < n; ++u) {
    for (node_id v : g.out_neighbors(u)) {
      adj[static_cast<std::size_t>(u)].push_back(v);
    }
  }
  std::vector<int> dist(static_cast<std::size_t>(n), -1);
  std::vector<node_id> frontier{source};
  dist[static_cast<std::size_t>(source)] = 0;
  int d = 0;
  while (!frontier.empty()) {
    ++d;
    std::vector<node_id> next;
    for (node_id u : frontier) {
      for (node_id v : adj[static_cast<std::size_t>(u)]) {
        auto& dv = dist[static_cast<std::size_t>(v)];
        if (dv == -1) {
          dv = d;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  return dist;
}

int oracle_radius(const graph& g, node_id source = 0) {
  const std::vector<int> dist = oracle_distances(g, source);
  int r = 0;
  for (int d : dist) {
    EXPECT_NE(d, -1) << "oracle: node unreachable from " << source;
    r = std::max(r, d);
  }
  return r;
}

// ---------------------------------------------------------------------------
// The invariant bundle every generator output must satisfy.
// ---------------------------------------------------------------------------

void expect_simple_graph(const graph& g, const std::string& what) {
  const node_id n = g.node_count();
  std::size_t arc_count = 0;
  for (node_id u = 0; u < n; ++u) {
    const auto out = g.out_neighbors(u);
    arc_count += out.size();
    std::set<node_id> seen;
    for (node_id v : out) {
      EXPECT_NE(v, u) << what << ": self-loop at " << u;
      EXPECT_GE(v, 0) << what;
      EXPECT_LT(v, n) << what;
      EXPECT_TRUE(seen.insert(v).second)
          << what << ": parallel edge " << u << "-" << v;
    }
    if (!g.is_directed()) {
      // Undirected symmetry, both within out-lists and across out/in.
      for (node_id v : out) {
        EXPECT_TRUE(g.has_edge(v, u))
            << what << ": edge " << u << "-" << v << " not symmetric";
      }
      const auto in = g.in_neighbors(u);
      EXPECT_TRUE(std::is_permutation(out.begin(), out.end(), in.begin(),
                                      in.end()))
          << what << ": in/out neighborhoods differ at " << u;
    }
  }
  // edge_count counts each undirected edge once, each arc once.
  const std::size_t expect_arcs =
      g.is_directed() ? g.edge_count() : 2 * g.edge_count();
  EXPECT_EQ(arc_count, expect_arcs) << what;
}

void expect_connected_from_source(const graph& g, const std::string& what) {
  EXPECT_TRUE(all_reachable(g)) << what;
  if (!g.is_directed()) {
    EXPECT_TRUE(is_connected(g)) << what;
  }
  // Library BFS against the oracle, every node.
  const std::vector<int> lib = bfs_distances(g, 0);
  const std::vector<int> oracle = oracle_distances(g, 0);
  EXPECT_EQ(lib, oracle) << what << ": bfs_distances disagrees with oracle";
}

void expect_all(const graph& g, node_id n, const std::string& what) {
  ASSERT_EQ(g.node_count(), n) << what;
  // Every generator must hand back CSR storage, ready for the simulator.
  EXPECT_TRUE(g.finalized()) << what << ": generator returned an "
                                        "unfinalized graph";
  expect_simple_graph(g, what);
  expect_connected_from_source(g, what);
  EXPECT_EQ(radius_from(g), oracle_radius(g))
      << what << ": radius_from disagrees with oracle";
}

// ---------------------------------------------------------------------------
// Deterministic families: exact node/edge counts and radius formulas.
// ---------------------------------------------------------------------------

TEST(GraphPropertyTest, Path) {
  for (node_id n : {2, 3, 7, 64}) {
    const graph g = make_path(n);
    expect_all(g, n, "path n=" + std::to_string(n));
    EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1));
    EXPECT_EQ(radius_from(g), n - 1);
  }
}

TEST(GraphPropertyTest, Cycle) {
  for (node_id n : {3, 4, 9, 50}) {
    const graph g = make_cycle(n);
    expect_all(g, n, "cycle n=" + std::to_string(n));
    EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n));
    EXPECT_EQ(radius_from(g), n / 2);
    for (node_id v = 0; v < n; ++v) EXPECT_EQ(g.out_degree(v), 2);
  }
}

TEST(GraphPropertyTest, Star) {
  for (node_id n : {2, 5, 33}) {
    const graph g = make_star(n);
    expect_all(g, n, "star n=" + std::to_string(n));
    EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1));
    EXPECT_EQ(radius_from(g), 1);
    EXPECT_EQ(g.out_degree(0), n - 1);
  }
}

TEST(GraphPropertyTest, Complete) {
  for (node_id n : {2, 6, 20}) {
    const graph g = make_complete(n);
    expect_all(g, n, "complete n=" + std::to_string(n));
    EXPECT_EQ(g.edge_count(),
              static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2);
    EXPECT_EQ(radius_from(g), 1);
    EXPECT_EQ(max_degree(g), n - 1);
  }
}

TEST(GraphPropertyTest, Grid) {
  const std::vector<std::pair<node_id, node_id>> shapes = {
      {1, 5}, {4, 4}, {3, 8}, {7, 2}};
  for (const auto& [rows, cols] : shapes) {
    const graph g = make_grid(rows, cols);
    const std::string what =
        "grid " + std::to_string(rows) + "x" + std::to_string(cols);
    expect_all(g, rows * cols, what);
    EXPECT_EQ(g.edge_count(),
              static_cast<std::size_t>(rows * (cols - 1) + cols * (rows - 1)))
        << what;
    EXPECT_EQ(radius_from(g), rows + cols - 2) << what;
    EXPECT_LE(max_degree(g), 4) << what;
  }
}

TEST(GraphPropertyTest, Caterpillar) {
  const std::vector<std::pair<node_id, node_id>> shapes = {
      {2, 0}, {5, 1}, {4, 3}, {10, 2}};
  for (const auto& [spine, legs] : shapes) {
    const graph g = make_caterpillar(spine, legs);
    const std::string what =
        "caterpillar spine=" + std::to_string(spine) +
        " legs=" + std::to_string(legs);
    const node_id n = spine * (1 + legs);
    expect_all(g, n, what);
    // A tree on n nodes.
    EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1)) << what;
    EXPECT_EQ(radius_from(g), spine - 1 + std::min<node_id>(1, legs)) << what;
  }
}

// ---------------------------------------------------------------------------
// Layered families.
// ---------------------------------------------------------------------------

TEST(GraphPropertyTest, CompleteLayered) {
  const std::vector<std::vector<node_id>> layerings = {
      {1, 4}, {1, 1, 1, 1}, {1, 3, 5, 2}, {1, 7, 1, 7, 1}};
  for (const auto& sizes : layerings) {
    const graph g = make_complete_layered(sizes);
    node_id n = 0;
    std::size_t edges = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      n += sizes[i];
      if (i + 1 < sizes.size()) {
        edges += static_cast<std::size_t>(sizes[i]) *
                 static_cast<std::size_t>(sizes[i + 1]);
      }
    }
    const std::string what = "complete_layered L=" +
                             std::to_string(sizes.size());
    expect_all(g, n, what);
    EXPECT_EQ(g.edge_count(), edges) << what;
    EXPECT_EQ(radius_from(g), static_cast<int>(sizes.size()) - 1) << what;
    EXPECT_TRUE(is_complete_layered(g)) << what;
    // The BFS layers must recover the construction's layer sizes.
    const auto layers = bfs_layers(g);
    ASSERT_EQ(layers.size(), sizes.size()) << what;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(layers[i].size(), static_cast<std::size_t>(sizes[i])) << what;
    }
  }
}

TEST(GraphPropertyTest, CompleteLayeredUniform) {
  for (node_id n : {8, 33, 100}) {
    for (int d : {1, 2, 5, 7}) {
      if (d > n - 1) continue;
      const graph g = make_complete_layered_uniform(n, d);
      const std::string what = "layered_uniform n=" + std::to_string(n) +
                               " d=" + std::to_string(d);
      expect_all(g, n, what);
      EXPECT_EQ(radius_from(g), d) << what;
      EXPECT_TRUE(is_complete_layered(g)) << what;
      // Layers 1…D split the n−1 non-source nodes as evenly as possible.
      const auto layers = bfs_layers(g);
      ASSERT_EQ(layers.size(), static_cast<std::size_t>(d + 1)) << what;
      std::size_t min_sz = layers[1].size(), max_sz = layers[1].size();
      for (std::size_t i = 1; i < layers.size(); ++i) {
        min_sz = std::min(min_sz, layers[i].size());
        max_sz = std::max(max_sz, layers[i].size());
      }
      EXPECT_LE(max_sz - min_sz, 1u) << what;
    }
  }
}

TEST(GraphPropertyTest, CompleteLayeredFat) {
  for (int d : {2, 4, 6}) {
    for (int fat : {1, d}) {
      const node_id n = 3 * d + 5;
      const graph g = make_complete_layered_fat(n, d, fat);
      const std::string what = "layered_fat n=" + std::to_string(n) +
                               " d=" + std::to_string(d) +
                               " fat=" + std::to_string(fat);
      expect_all(g, n, what);
      EXPECT_EQ(radius_from(g), d) << what;
      EXPECT_TRUE(is_complete_layered(g)) << what;
      // Every layer except the fat one has the thin size (default 1); the
      // fat layer absorbs the slack.
      const auto layers = bfs_layers(g);
      ASSERT_EQ(layers.size(), static_cast<std::size_t>(d + 1)) << what;
      for (int i = 1; i <= d; ++i) {
        if (i == fat) {
          EXPECT_EQ(layers[static_cast<std::size_t>(i)].size(),
                    static_cast<std::size_t>(n - 1 - (d - 1)))
              << what;
        } else {
          EXPECT_EQ(layers[static_cast<std::size_t>(i)].size(), 1u) << what;
        }
      }
    }
  }
}

TEST(GraphPropertyTest, RandomLayered) {
  rng gen(11);
  const std::vector<std::vector<node_id>> layerings = {
      {1, 4, 4}, {1, 2, 6, 2}, {1, 5, 5, 5, 1}};
  for (const auto& sizes : layerings) {
    for (double p : {0.0, 0.3, 1.0}) {
      const graph g = make_random_layered(sizes, p, gen);
      node_id n = 0;
      for (node_id s : sizes) n += s;
      const std::string what =
          "random_layered L=" + std::to_string(sizes.size()) +
          " p=" + std::to_string(p);
      expect_all(g, n, what);
      // The mandatory parents keep the layer structure exact regardless
      // of p: distances equal the construction layers.
      const auto layers = bfs_layers(g);
      ASSERT_EQ(layers.size(), sizes.size()) << what;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(layers[i].size(), static_cast<std::size_t>(sizes[i]))
            << what;
      }
      // p = 1 must coincide with the complete layered network.
      if (p == 1.0) {
        EXPECT_TRUE(is_complete_layered(g)) << what;
      }
    }
  }
}

TEST(GraphPropertyTest, DirectedLayered) {
  rng gen(13);
  const std::vector<node_id> sizes = {1, 3, 4, 2};
  for (double p : {0.0, 0.5, 1.0}) {
    const graph g = make_directed_layered(sizes, p, gen);
    const std::string what = "directed_layered p=" + std::to_string(p);
    ASSERT_EQ(g.node_count(), 10) << what;
    EXPECT_TRUE(g.is_directed()) << what;
    expect_simple_graph(g, what);
    EXPECT_TRUE(all_reachable(g)) << what;
    EXPECT_EQ(bfs_distances(g, 0), oracle_distances(g, 0)) << what;
    EXPECT_EQ(radius_from(g), static_cast<int>(sizes.size()) - 1) << what;
    // Arcs only go forward one layer: no node reaches back to the source.
    for (node_id v = 1; v < g.node_count(); ++v) {
      const std::vector<int> back = oracle_distances(g, v);
      EXPECT_EQ(back[0], -1) << what << ": arc path back to source from "
                             << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized families: sweep seeds.
// ---------------------------------------------------------------------------

TEST(GraphPropertyTest, RandomTree) {
  rng gen(3);
  for (node_id n : {2, 9, 40, 120}) {
    for (int rep = 0; rep < 4; ++rep) {
      const graph g = make_random_tree(n, gen);
      const std::string what = "random_tree n=" + std::to_string(n) +
                               " rep=" + std::to_string(rep);
      expect_all(g, n, what);
      EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1)) << what;
    }
  }
}

TEST(GraphPropertyTest, BoundedDegreeTree) {
  rng gen(17);
  for (node_id n : {2, 15, 60}) {
    for (node_id cap : {2, 3, 5}) {
      const graph g = make_bounded_degree_tree(n, cap, gen);
      const std::string what = "bounded_tree n=" + std::to_string(n) +
                               " cap=" + std::to_string(cap);
      expect_all(g, n, what);
      EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n - 1)) << what;
      EXPECT_LE(max_degree(g), cap) << what;
    }
  }
}

TEST(GraphPropertyTest, GnpConnected) {
  rng gen(23);
  for (node_id n : {2, 10, 48}) {
    for (double p : {0.0, 0.05, 0.3, 1.0}) {
      for (int rep = 0; rep < 3; ++rep) {
        const graph g = make_gnp_connected(n, p, gen);
        const std::string what = "gnp n=" + std::to_string(n) +
                                 " p=" + std::to_string(p) +
                                 " rep=" + std::to_string(rep);
        expect_all(g, n, what);
        // Connectivity forces at least a spanning tree's worth of edges.
        EXPECT_GE(g.edge_count(), static_cast<std::size_t>(n - 1)) << what;
        if (p == 1.0) {
          EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n) *
                                        static_cast<std::size_t>(n - 1) / 2)
              << what;
        }
      }
    }
  }
}

TEST(GraphPropertyTest, RandomGeometric) {
  rng gen(29);
  for (node_id n : {2, 12, 50}) {
    for (double range : {0.05, 0.3, 1.5}) {
      std::vector<std::pair<double, double>> pos;
      const graph g = make_random_geometric(n, range, gen, pos);
      const std::string what = "geometric n=" + std::to_string(n) +
                               " range=" + std::to_string(range);
      expect_all(g, n, what);
      ASSERT_EQ(pos.size(), static_cast<std::size_t>(n)) << what;
      for (const auto& [x, y] : pos) {
        EXPECT_GE(x, 0.0) << what;
        EXPECT_LE(x, 1.0) << what;
        EXPECT_GE(y, 0.0) << what;
        EXPECT_LE(y, 1.0) << what;
      }
      // range ≥ √2 covers the whole unit square: must be complete.
      if (range >= 1.5) {
        EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(n) *
                                      static_cast<std::size_t>(n - 1) / 2)
            << what;
      }
    }
  }
}

TEST(GraphPropertyTest, PermuteLabelsPreservesStructure) {
  rng gen(31);
  const graph g = make_gnp_connected(24, 0.2, gen);
  for (int rep = 0; rep < 3; ++rep) {
    const graph h = permute_labels(g, gen);
    const std::string what = "permute rep=" + std::to_string(rep);
    expect_all(h, g.node_count(), what);
    EXPECT_EQ(h.edge_count(), g.edge_count()) << what;
    EXPECT_EQ(radius_from(h), radius_from(g)) << what;
    // The degree multiset is invariant under relabeling.
    auto degrees = [](const graph& x) {
      std::vector<node_id> d;
      for (node_id v = 0; v < x.node_count(); ++v) {
        d.push_back(x.out_degree(v));
      }
      std::sort(d.begin(), d.end());
      return d;
    };
    EXPECT_EQ(degrees(h), degrees(g)) << what;
    // The source is fixed, so its degree is preserved exactly.
    EXPECT_EQ(h.out_degree(0), g.out_degree(0)) << what;
  }
}

// ---------------------------------------------------------------------------
// Helper generators.
// ---------------------------------------------------------------------------

TEST(GraphPropertyTest, EvenSplit) {
  for (node_id total : {1, 7, 30, 101}) {
    for (int parts : {1, 2, 5, 13}) {
      if (parts > total) continue;
      const std::vector<node_id> sizes = even_split(total, parts);
      const std::string what = "even_split total=" + std::to_string(total) +
                               " parts=" + std::to_string(parts);
      ASSERT_EQ(sizes.size(), static_cast<std::size_t>(parts)) << what;
      node_id sum = 0;
      node_id min_sz = sizes[0], max_sz = sizes[0];
      for (node_id s : sizes) {
        EXPECT_GE(s, 1) << what;
        sum += s;
        min_sz = std::min(min_sz, s);
        max_sz = std::max(max_sz, s);
      }
      EXPECT_EQ(sum, total) << what;
      EXPECT_LE(max_sz - min_sz, 1) << what;
    }
  }
}

TEST(GraphPropertyTest, SparseLabels) {
  rng gen(37);
  for (node_id n : {1, 8, 40}) {
    for (node_id r : {n - 1, 2 * n, 5 * n + 3}) {
      if (r < n - 1) continue;
      const std::vector<node_id> labels = sparse_labels(n, r, gen);
      const std::string what = "sparse_labels n=" + std::to_string(n) +
                               " r=" + std::to_string(r);
      ASSERT_EQ(labels.size(), static_cast<std::size_t>(n)) << what;
      EXPECT_EQ(labels[0], 0) << what;
      std::set<node_id> distinct;
      for (node_id l : labels) {
        EXPECT_GE(l, 0) << what;
        EXPECT_LE(l, r) << what;
        EXPECT_TRUE(distinct.insert(l).second) << what << ": duplicate label";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CSR finalize vs the old per-add duplicate scan.
// ---------------------------------------------------------------------------

using oracle_rows = std::vector<std::vector<node_id>>;

// Checks every row of g (out- and in-rows, and has_edge over all pairs)
// against the per-row oracle, in order. Works in either storage phase.
void expect_rows_match(const graph& g, const oracle_rows& out,
                       const oracle_rows& in, const std::string& what) {
  const node_id n = g.node_count();
  for (node_id u = 0; u < n; ++u) {
    const auto row = g.out_neighbors(u);
    const auto& want = out[static_cast<std::size_t>(u)];
    ASSERT_EQ(row.size(), want.size()) << what << " out-row " << u;
    EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin()))
        << what << ": out-row order differs at node " << u;
    EXPECT_EQ(g.out_degree(u), static_cast<node_id>(want.size())) << what;
    const auto in_row = g.in_neighbors(u);
    const auto& want_in = in[static_cast<std::size_t>(u)];
    ASSERT_EQ(in_row.size(), want_in.size()) << what << " in-row " << u;
    EXPECT_TRUE(std::equal(in_row.begin(), in_row.end(), want_in.begin()))
        << what << ": in-row order differs at node " << u;
    for (node_id v = 0; v < n; ++v) {
      const bool want_edge =
          std::find(want.begin(), want.end(), v) != want.end();
      EXPECT_EQ(g.has_edge(u, v), want_edge)
          << what << ": has_edge(" << u << ", " << v << ")";
    }
  }
}

// Sorts every oracle row, as sort_adjacency() must, and returns each row's
// length: later adds must land after that sorted prefix.
std::vector<std::size_t> sort_oracle(oracle_rows& rows) {
  std::vector<std::size_t> prefix;
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    prefix.push_back(row.size());
  }
  return prefix;
}

void expect_sorted_prefixes(const graph& g,
                            const std::vector<std::size_t>& prefix,
                            const std::string& what) {
  for (node_id u = 0; u < g.node_count(); ++u) {
    const auto row = g.out_neighbors(u);
    const auto len = prefix[static_cast<std::size_t>(u)];
    ASSERT_GE(row.size(), len) << what;
    EXPECT_TRUE(std::is_sorted(row.begin(),
                               row.begin() + static_cast<std::ptrdiff_t>(len)))
        << what << ": sorted prefix broken at node " << u;
  }
}

TEST(GraphPropertyTest, FinalizeDedupMatchesPerAddScanOracle) {
  // finalize() dedupes adjacency in one pass; the contract is that the
  // result is IDENTICAL (order included) to what the pre-CSR graph built
  // by scanning for duplicates on every add_edge. Replay a dup-heavy
  // random edge stream into both and compare row by row — also while
  // building: reads between adds must see every add so far, deduped, and
  // a mid-stream sort_adjacency() must leave a sorted prefix per row with
  // later adds appended after it.
  rng gen(401);
  for (const node_id n : {5, 17, 60}) {
    const std::string what = "dedup n=" + std::to_string(n);
    graph g = graph::undirected(n);
    oracle_rows oracle(static_cast<std::size_t>(n));
    const auto oracle_add = [&oracle](node_id u, node_id v) {
      auto& row = oracle[static_cast<std::size_t>(u)];
      if (std::find(row.begin(), row.end(), v) == row.end()) {
        row.push_back(v);
      }
    };
    const int adds = static_cast<int>(n) * 8;  // dense in dups by design
    std::vector<std::size_t> prefix;
    for (int i = 0; i < adds; ++i) {
      if (i % (adds / 6) == 0) {
        expect_rows_match(g, oracle, oracle, what + " building @" +
                                                  std::to_string(i));
      }
      if (i == adds / 2) {
        g.sort_adjacency();
        prefix = sort_oracle(oracle);
        expect_rows_match(g, oracle, oracle, what + " sorted");
      }
      const auto u = static_cast<node_id>(gen.below(
          static_cast<std::uint64_t>(n)));
      const auto v = static_cast<node_id>(gen.below(
          static_cast<std::uint64_t>(n)));
      if (u == v) continue;
      g.add_edge(u, v);
      oracle_add(u, v);
      oracle_add(v, u);
    }
    EXPECT_FALSE(g.finalized());
    expect_rows_match(g, oracle, oracle, what + " building");
    expect_sorted_prefixes(g, prefix, what + " building");
    g.finalize();
    expect_rows_match(g, oracle, oracle, what);
    expect_sorted_prefixes(g, prefix, what);
    std::size_t oracle_arcs = 0;
    for (const auto& row : oracle) oracle_arcs += row.size();
    EXPECT_EQ(2 * g.edge_count(), oracle_arcs) << what;
  }
}

TEST(GraphPropertyTest, FinalizeDedupMatchesPerAddScanOracleDirected) {
  rng gen(409);
  const node_id n = 24;
  graph g = graph::directed(n);
  oracle_rows out_oracle(static_cast<std::size_t>(n));
  oracle_rows in_oracle(static_cast<std::size_t>(n));
  const auto scan_add = [](std::vector<node_id>& row, node_id v) {
    if (std::find(row.begin(), row.end(), v) == row.end()) row.push_back(v);
  };
  std::vector<std::size_t> prefix;
  for (int i = 0; i < 200; ++i) {
    if (i % 30 == 0) {
      expect_rows_match(g, out_oracle, in_oracle,
                        "building @" + std::to_string(i));
    }
    if (i == 100) {
      g.sort_adjacency();
      prefix = sort_oracle(out_oracle);
      sort_oracle(in_oracle);
      expect_rows_match(g, out_oracle, in_oracle, "sorted");
    }
    const auto u = static_cast<node_id>(gen.below(
        static_cast<std::uint64_t>(n)));
    const auto v = static_cast<node_id>(gen.below(
        static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    g.add_edge(u, v);
    scan_add(out_oracle[static_cast<std::size_t>(u)], v);
    scan_add(in_oracle[static_cast<std::size_t>(v)], u);
  }
  EXPECT_FALSE(g.finalized());
  expect_rows_match(g, out_oracle, in_oracle, "building");
  expect_sorted_prefixes(g, prefix, "building");
  g.finalize();
  expect_rows_match(g, out_oracle, in_oracle, "finalized");
  expect_sorted_prefixes(g, prefix, "finalized");
  std::size_t arcs = 0;
  for (const auto& row : out_oracle) arcs += row.size();
  EXPECT_EQ(g.edge_count(), arcs);
}

}  // namespace
}  // namespace radiocast
