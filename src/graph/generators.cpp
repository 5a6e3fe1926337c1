#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/analysis.h"

namespace radiocast {

graph make_path(node_id n) {
  RC_REQUIRE(n >= 1);
  graph g = graph::undirected(n);
  for (node_id v = 0; v + 1 < n; ++v) g.add_edge_unchecked(v, v + 1);
  g.finalize();
  return g;
}

graph make_cycle(node_id n) {
  RC_REQUIRE(n >= 3);
  graph g = graph::undirected(n);
  for (node_id v = 0; v + 1 < n; ++v) g.add_edge_unchecked(v, v + 1);
  g.add_edge_unchecked(n - 1, 0);
  g.finalize();
  return g;
}

graph make_star(node_id n) {
  RC_REQUIRE(n >= 2);
  graph g = graph::undirected(n);
  for (node_id v = 1; v < n; ++v) g.add_edge_unchecked(0, v);
  g.finalize();
  return g;
}

graph make_complete(node_id n) {
  RC_REQUIRE(n >= 2);
  graph g = graph::undirected(n);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) g.add_edge_unchecked(u, v);
  }
  g.finalize();
  return g;
}

graph make_grid(node_id rows, node_id cols) {
  RC_REQUIRE(rows >= 1 && cols >= 1 && rows * cols >= 2);
  graph g = graph::undirected(rows * cols);
  auto id = [cols](node_id r, node_id c) { return r * cols + c; };
  for (node_id r = 0; r < rows; ++r) {
    for (node_id c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge_unchecked(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge_unchecked(id(r, c), id(r + 1, c));
    }
  }
  g.finalize();
  return g;
}

graph make_random_tree(node_id n, rng& gen) {
  RC_REQUIRE(n >= 1);
  graph g = graph::undirected(n);
  for (node_id v = 1; v < n; ++v) {
    const auto parent = static_cast<node_id>(
        gen.below(static_cast<std::uint64_t>(v)));
    g.add_edge_unchecked(v, parent);
  }
  g.finalize();
  return g;
}

graph make_bounded_degree_tree(node_id n, node_id max_degree, rng& gen) {
  RC_REQUIRE(n >= 1);
  RC_REQUIRE(max_degree >= 2);
  graph g = graph::undirected(n);
  std::vector<node_id> open;  // nodes with spare degree capacity
  std::vector<node_id> degree(static_cast<std::size_t>(n), 0);
  open.push_back(0);
  for (node_id v = 1; v < n; ++v) {
    RC_CHECK(!open.empty());
    const std::size_t pick = gen.below(open.size());
    const node_id parent = open[pick];
    g.add_edge_unchecked(v, parent);
    auto& dp = degree[static_cast<std::size_t>(parent)];
    auto& dv = degree[static_cast<std::size_t>(v)];
    ++dp;
    ++dv;
    if (dp >= max_degree) {
      open[pick] = open.back();
      open.pop_back();
    }
    if (dv < max_degree) open.push_back(v);
  }
  g.finalize();
  return g;
}

namespace {

// Union-find over node ids: union by size, path halving.
class disjoint_sets {
 public:
  // Seeds the sets with every edge added to `g` so far.
  explicit disjoint_sets(const graph& g)
      : parent_(static_cast<std::size_t>(g.node_count())),
        size_(static_cast<std::size_t>(g.node_count()), 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
    for (const graph::edge& e : g.pending_edges()) unite(e.u, e.v);
  }

  node_id find(node_id x) {
    auto* p = parent_.data();
    while (p[x] != x) {
      p[x] = p[p[x]];
      x = p[x];
    }
    return x;
  }

  void unite(node_id a, node_id b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[static_cast<std::size_t>(a)] <
        size_[static_cast<std::size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] += size_[static_cast<std::size_t>(b)];
  }

 private:
  std::vector<node_id> parent_;
  std::vector<node_id> size_;
};

// Bridges the sampled components with random edges so the result is
// connected without reshaping the bulk topology. Shared by both G(n, p)
// generators; draws below(n) once per rejection. Draws and bridges depend
// only on which component each node is in.
void bridge_components(graph& g, node_id n, rng& gen) {
  disjoint_sets sets(g);
  for (node_id v = 1; v < n; ++v) {
    if (sets.find(v) != sets.find(0)) {
      // Attach v's component to a random already-connected node.
      node_id target;
      do {
        target = static_cast<node_id>(
            gen.below(static_cast<std::uint64_t>(n)));
      } while (sets.find(target) != sets.find(0));
      g.add_edge(v, target);
      sets.unite(v, target);
    }
  }
}

}  // namespace

graph make_gnp_connected(node_id n, double p, rng& gen) {
  RC_REQUIRE(n >= 2);
  RC_REQUIRE(p >= 0.0 && p <= 1.0);
  graph g = graph::undirected(n);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) {
      if (gen.bernoulli(p)) g.add_edge_unchecked(u, v);
    }
  }
  bridge_components(g, n, gen);
  g.finalize();
  return g;
}

graph make_gnp_sparse_connected(node_id n, double p, rng& gen) {
  RC_REQUIRE(n >= 2);
  RC_REQUIRE(p >= 0.0 && p <= 1.0);
  graph g = graph::undirected(n);
  if (p > 0.0) {
    // Geometric edge-skipping: instead of a bernoulli per pair, draw the
    // gap to the next PRESENT pair directly — Geometric(p) — and advance a
    // (row, col) cursor over the linearized sequence (0,1), (0,2), …,
    // (n−2, n−1). Expected cost is one log per present edge plus the O(n)
    // total row walk. p == 1 degenerates gracefully: log1p(-1) = −inf makes
    // every skip 0, so all pairs are emitted.
    const double log_q = std::log1p(-p);
    node_id a = 0;
    node_id b = 1;
    // Advance the cursor by `steps` candidate pairs; a == n−1 ⇔ exhausted.
    const auto advance = [&](std::uint64_t steps) {
      while (a < n - 1) {
        const auto row_left = static_cast<std::uint64_t>(n - b);
        if (steps < row_left) {
          b += static_cast<node_id>(steps);
          return;
        }
        steps -= row_left;
        ++a;
        b = a + 1;
      }
    };
    const auto total =
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) / 2;
    while (a < n - 1) {
      // u ∈ (0, 1] so log(u) is finite (≤ 0) and the skip is well-defined.
      const double u = 1.0 - gen.uniform01();
      const double skip = std::log(u) / log_q;
      if (!(skip < static_cast<double>(total))) break;  // no further edge
      advance(static_cast<std::uint64_t>(skip));
      if (a >= n - 1) break;
      g.add_edge_unchecked(a, b);
      advance(1);
    }
  }
  bridge_components(g, n, gen);
  g.finalize();
  return g;
}

graph make_caterpillar(node_id spine, node_id legs) {
  RC_REQUIRE(spine >= 2);
  RC_REQUIRE(legs >= 0);
  const node_id n = spine * (1 + legs);
  graph g = graph::undirected(n);
  for (node_id s = 0; s + 1 < spine; ++s) g.add_edge_unchecked(s, s + 1);
  node_id next = spine;
  for (node_id s = 0; s < spine; ++s) {
    for (node_id leg = 0; leg < legs; ++leg) {
      g.add_edge_unchecked(s, next++);
    }
  }
  RC_CHECK(next == n);
  g.finalize();
  return g;
}

graph make_complete_layered(const std::vector<node_id>& layer_sizes) {
  RC_REQUIRE(layer_sizes.size() >= 2);
  RC_REQUIRE_MSG(layer_sizes.front() == 1, "layer 0 must be the source only");
  node_id n = 0;
  for (node_id size : layer_sizes) {
    RC_REQUIRE(size >= 1);
    n += size;
  }
  graph g = graph::undirected(n);
  std::size_t edges = 0;
  for (std::size_t layer = 0; layer + 1 < layer_sizes.size(); ++layer) {
    edges += static_cast<std::size_t>(layer_sizes[layer]) *
             static_cast<std::size_t>(layer_sizes[layer + 1]);
  }
  g.reserve_edges(edges);
  node_id layer_start = 0;
  for (std::size_t layer = 0; layer + 1 < layer_sizes.size(); ++layer) {
    const node_id this_size = layer_sizes[layer];
    const node_id next_start = layer_start + this_size;
    const node_id next_size = layer_sizes[layer + 1];
    for (node_id u = layer_start; u < layer_start + this_size; ++u) {
      for (node_id v = next_start; v < next_start + next_size; ++v) {
        g.add_edge_unchecked(u, v);
      }
    }
    layer_start = next_start;
  }
  g.finalize();
  return g;
}

std::vector<node_id> even_split(node_id total, int parts) {
  RC_REQUIRE(parts >= 1);
  RC_REQUIRE(total >= parts);
  std::vector<node_id> sizes(static_cast<std::size_t>(parts),
                             total / parts);
  for (node_id i = 0; i < total % parts; ++i) {
    ++sizes[static_cast<std::size_t>(i)];
  }
  return sizes;
}

graph make_complete_layered_uniform(node_id n, int d) {
  RC_REQUIRE(d >= 1);
  RC_REQUIRE_MSG(n >= d + 1, "need at least one node per layer");
  std::vector<node_id> sizes{1};
  const auto rest = even_split(n - 1, d);
  sizes.insert(sizes.end(), rest.begin(), rest.end());
  return make_complete_layered(sizes);
}

graph make_complete_layered_fat(node_id n, int d, int fat_index,
                                node_id thin) {
  RC_REQUIRE(d >= 1);
  RC_REQUIRE(fat_index >= 1 && fat_index <= d);
  RC_REQUIRE(thin >= 1);
  const node_id base = 1 + thin * (d - 1);
  RC_REQUIRE_MSG(n >= base + 1, "not enough nodes for the fat layer");
  std::vector<node_id> sizes(static_cast<std::size_t>(d) + 1, thin);
  sizes[0] = 1;
  sizes[static_cast<std::size_t>(fat_index)] = n - base;
  return make_complete_layered(sizes);
}

graph make_random_layered(const std::vector<node_id>& layer_sizes, double p,
                          rng& gen) {
  RC_REQUIRE(layer_sizes.size() >= 2);
  RC_REQUIRE(layer_sizes.front() == 1);
  RC_REQUIRE(p >= 0.0 && p <= 1.0);
  node_id n = 0;
  for (node_id size : layer_sizes) {
    RC_REQUIRE(size >= 1);
    n += size;
  }
  graph g = graph::undirected(n);
  node_id layer_start = 0;
  for (std::size_t layer = 0; layer + 1 < layer_sizes.size(); ++layer) {
    const node_id this_size = layer_sizes[layer];
    const node_id next_start = layer_start + this_size;
    const node_id next_size = layer_sizes[layer + 1];
    for (node_id v = next_start; v < next_start + next_size; ++v) {
      // One mandatory parent keeps layers intact; extras appear w.p. p.
      const node_id mandatory =
          layer_start + static_cast<node_id>(
                            gen.below(static_cast<std::uint64_t>(this_size)));
      g.add_edge_unchecked(mandatory, v);
      for (node_id u = layer_start; u < next_start; ++u) {
        if (u != mandatory && gen.bernoulli(p)) g.add_edge_unchecked(u, v);
      }
    }
    layer_start = next_start;
  }
  g.finalize();
  return g;
}

std::vector<node_id> sparse_labels(node_id n, node_id r, rng& gen) {
  RC_REQUIRE(n >= 1);
  RC_REQUIRE_MSG(r >= n - 1, "need at least n distinct labels in {0..r}");
  // Partial Fisher–Yates over {1..r}: draw n−1 distinct nonzero labels.
  std::vector<node_id> urn(static_cast<std::size_t>(r));
  std::iota(urn.begin(), urn.end(), 1);
  std::vector<node_id> labels{0};
  for (node_id i = 0; i < n - 1; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(i) +
        gen.below(urn.size() - static_cast<std::size_t>(i));
    std::swap(urn[static_cast<std::size_t>(i)], urn[j]);
    labels.push_back(urn[static_cast<std::size_t>(i)]);
  }
  return labels;
}

graph make_directed_layered(const std::vector<node_id>& layer_sizes,
                            double p, rng& gen) {
  RC_REQUIRE(layer_sizes.size() >= 2);
  RC_REQUIRE(layer_sizes.front() == 1);
  RC_REQUIRE(p >= 0.0 && p <= 1.0);
  node_id n = 0;
  for (node_id size : layer_sizes) {
    RC_REQUIRE(size >= 1);
    n += size;
  }
  graph g = graph::directed(n);
  node_id layer_start = 0;
  for (std::size_t layer = 0; layer + 1 < layer_sizes.size(); ++layer) {
    const node_id this_size = layer_sizes[layer];
    const node_id next_start = layer_start + this_size;
    const node_id next_size = layer_sizes[layer + 1];
    for (node_id v = next_start; v < next_start + next_size; ++v) {
      const node_id mandatory =
          layer_start + static_cast<node_id>(
                            gen.below(static_cast<std::uint64_t>(this_size)));
      g.add_edge_unchecked(mandatory, v);
      for (node_id u = layer_start; u < next_start; ++u) {
        if (u != mandatory && gen.bernoulli(p)) g.add_edge_unchecked(u, v);
      }
    }
    layer_start = next_start;
  }
  g.finalize();
  return g;
}

graph make_random_geometric(node_id n, double radio_range, rng& gen) {
  std::vector<std::pair<double, double>> points;
  return make_random_geometric(n, radio_range, gen, points);
}

graph make_random_geometric(
    node_id n, double radio_range, rng& gen,
    std::vector<std::pair<double, double>>& points) {
  RC_REQUIRE(n >= 2);
  RC_REQUIRE(radio_range > 0.0);
  points.assign(static_cast<std::size_t>(n), {0.0, 0.0});
  for (auto& p : points) p = {gen.uniform01(), gen.uniform01()};
  // Node 0 plays the source; make it the point closest to the corner so
  // the radius is typically Θ(1/range) rather than accidental.
  std::size_t corner = 0;
  auto corner_dist = [&](std::size_t i) {
    return points[i].first * points[i].first +
           points[i].second * points[i].second;
  };
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (corner_dist(i) < corner_dist(corner)) corner = i;
  }
  std::swap(points[0], points[corner]);

  auto dist2 = [&](node_id a, node_id b) {
    const double dx = points[static_cast<std::size_t>(a)].first -
                      points[static_cast<std::size_t>(b)].first;
    const double dy = points[static_cast<std::size_t>(a)].second -
                      points[static_cast<std::size_t>(b)].second;
    return dx * dx + dy * dy;
  };

  graph g = graph::undirected(n);
  const double range2 = radio_range * radio_range;
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) {
      if (dist2(u, v) <= range2) g.add_edge_unchecked(u, v);
    }
  }

  // Bridge leftover components via their geometrically closest cross pair,
  // one pair per round, until node 0's component holds every node.
  disjoint_sets sets(g);
  std::vector<char> in_source(static_cast<std::size_t>(n));
  for (;;) {
    const node_id source = sets.find(0);
    for (node_id u = 0; u < n; ++u) {
      in_source[static_cast<std::size_t>(u)] = sets.find(u) == source ? 1 : 0;
    }
    node_id best_in = -1;
    node_id best_out = -1;
    double best = 0.0;
    for (node_id u = 0; u < n; ++u) {
      if (in_source[static_cast<std::size_t>(u)] == 0) continue;
      for (node_id v = 0; v < n; ++v) {
        if (in_source[static_cast<std::size_t>(v)] != 0) continue;
        const double d = dist2(u, v);
        if (best_in == -1 || d < best) {
          best = d;
          best_in = u;
          best_out = v;
        }
      }
    }
    if (best_in == -1) break;  // connected
    g.add_edge(best_in, best_out);
    sets.unite(best_in, best_out);
  }
  g.finalize();
  return g;
}

graph permute_labels(const graph& g, const std::vector<node_id>& perm) {
  RC_REQUIRE(perm.size() == static_cast<std::size_t>(g.node_count()));
  RC_REQUIRE_MSG(perm[0] == 0, "the source's label 0 must stay fixed");
  std::vector<bool> seen(perm.size(), false);
  for (node_id image : perm) {
    RC_REQUIRE(image >= 0 && image < g.node_count());
    RC_REQUIRE_MSG(!seen[static_cast<std::size_t>(image)],
                   "perm must be a bijection");
    seen[static_cast<std::size_t>(image)] = true;
  }
  graph result = g.is_directed() ? graph::directed(g.node_count())
                                 : graph::undirected(g.node_count());
  for (node_id u = 0; u < g.node_count(); ++u) {
    for (node_id v : g.out_neighbors(u)) {
      if (!g.is_directed() && v < u) continue;
      result.add_edge_unchecked(perm[static_cast<std::size_t>(u)],
                                perm[static_cast<std::size_t>(v)]);
    }
  }
  result.finalize();
  return result;
}

graph permute_labels(const graph& g, rng& gen) {
  std::vector<node_id> perm(static_cast<std::size_t>(g.node_count()));
  std::iota(perm.begin(), perm.end(), 0);
  // Fisher–Yates over indices 1…n−1 (the source stays node 0).
  for (std::size_t i = perm.size() - 1; i >= 2; --i) {
    const std::size_t j = 1 + gen.below(i);  // j ∈ [1, i]
    std::swap(perm[i], perm[j]);
    if (i == 2) break;
  }
  return permute_labels(g, perm);
}

}  // namespace radiocast
