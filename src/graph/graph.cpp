#include "graph/graph.h"

#include <algorithm>
#include <sstream>

namespace radiocast {

namespace {

// Buckets `edges` into CSR rows with a counting sort: row e.u receives e.v
// when `fwd`, row e.v receives e.u when `rev`. Degrees are counted, prefix-
// summed into row starts, and the scatter walks the buffer in add order,
// so every row holds its entries in add order. Each row is then compacted
// in place, dropping repeats: mark[v] == u means v was already kept in row
// u. First occurrence wins, reproducing exactly the adjacency the old
// per-add duplicate scan built.
void bucket_rows(std::span<const graph::edge> edges, bool fwd, bool rev,
                 std::vector<std::size_t>& off, std::vector<node_id>& adj,
                 std::vector<node_id>& mark) {
  const std::size_t n = mark.size();
  off.assign(n + 1, 0);
  for (const graph::edge& e : edges) {
    if (fwd) ++off[static_cast<std::size_t>(e.u)];
    if (rev) ++off[static_cast<std::size_t>(e.v)];
  }
  std::size_t total = 0;
  for (std::size_t& o : off) {
    const std::size_t degree = o;
    o = total;
    total += degree;
  }
  adj.resize(total);
  for (const graph::edge& e : edges) {
    if (fwd) adj[off[static_cast<std::size_t>(e.u)]++] = e.v;
    if (rev) adj[off[static_cast<std::size_t>(e.v)]++] = e.u;
  }
  // off[u] is now the end of row u; rewrite it to the compacted start.
  std::fill(mark.begin(), mark.end(), -1);
  std::size_t begin = 0;
  std::size_t kept = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t end = off[u];
    off[u] = kept;
    for (std::size_t i = begin; i < end; ++i) {
      const node_id v = adj[i];
      auto& m = mark[static_cast<std::size_t>(v)];
      if (m == static_cast<node_id>(u)) continue;  // duplicate in row u
      m = static_cast<node_id>(u);
      adj[kept++] = v;
    }
    begin = end;
  }
  off[n] = kept;
  adj.resize(kept);
}

// finalize() leaves its emptied edge buffer here, and the next graph
// constructed on the same thread starts from it. Repeated builds of one
// size (a set-up loop, the trials of a campaign point) then write into
// resident pages. A freed buffer goes back to the system between builds,
// and faulting it in again cost more than the bucketing itself
// (docs/PERFORMANCE.md). Buffers of more than kSpareEdgesMax entries
// (2 MB) are freed, so no thread pins the buffer of a huge graph.
constexpr std::size_t kSpareEdgesMax = std::size_t{1} << 18;
thread_local std::vector<graph::edge> spare_edges;

}  // namespace

graph::graph(node_id n, bool directed) : n_(n), directed_(directed) {
  RC_REQUIRE(n >= 1);
  edges_.swap(spare_edges);
}

graph graph::undirected(node_id n) { return graph(n, /*directed=*/false); }

graph graph::directed(node_id n) { return graph(n, /*directed=*/true); }

void graph::add_edge(node_id u, node_id v) { add_edge_unchecked(u, v); }

bool graph::has_edge(node_id u, node_id v) const {
  RC_REQUIRE(valid(u) && valid(v));
  const auto adj = out_neighbors(u);
  return std::find(adj.begin(), adj.end(), v) != adj.end();
}

void graph::refresh_view() const {
  if (view_edges_ == edges_.size()) return;
  std::vector<node_id> mark(static_cast<std::size_t>(n_));
  if (directed_) {
    bucket_rows(edges_, /*fwd=*/true, /*rev=*/false, out_off_, out_adj_,
                mark);
    bucket_rows(edges_, /*fwd=*/false, /*rev=*/true, in_off_, in_adj_, mark);
  } else {
    bucket_rows(edges_, /*fwd=*/true, /*rev=*/true, out_off_, out_adj_, mark);
  }
  view_edges_ = edges_.size();
}

void graph::finalize() {
  if (finalized_) return;
  refresh_view();
  edges_.clear();
  if (edges_.capacity() <= kSpareEdgesMax &&
      edges_.capacity() > spare_edges.capacity()) {
    edges_.swap(spare_edges);
  }
  std::vector<edge>().swap(edges_);
  if (directed_) {
    RC_CHECK(in_adj_.size() == out_adj_.size());
    edge_count_ = out_adj_.size();
  } else {
    RC_CHECK(out_adj_.size() % 2 == 0);
    edge_count_ = out_adj_.size() / 2;
  }
  finalized_ = true;
}

void graph::sort_adjacency() {
  if (!finalized_) {
    // Sorting the buffer sorts every bucketed row: a row is scattered in
    // buffer order, and with undirected edges as (min, max) the entries a
    // row w gets from edges (x, w), x < w, all precede those from (w, y).
    if (!directed_) {
      for (edge& e : edges_) {
        if (e.v < e.u) std::swap(e.u, e.v);
      }
    }
    std::sort(edges_.begin(), edges_.end(), [](const edge& a, const edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    view_edges_ = kNoView;
    return;
  }
  const auto n = static_cast<std::size_t>(n_);
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(out_adj_.begin() + static_cast<std::ptrdiff_t>(out_off_[v]),
              out_adj_.begin() + static_cast<std::ptrdiff_t>(out_off_[v + 1]));
    if (directed_) {
      std::sort(in_adj_.begin() + static_cast<std::ptrdiff_t>(in_off_[v]),
                in_adj_.begin() + static_cast<std::ptrdiff_t>(in_off_[v + 1]));
    }
  }
}

graph graph::as_directed() const {
  if (directed_) return *this;
  graph g = graph::directed(node_count());
  for (node_id u = 0; u < node_count(); ++u) {
    for (node_id v : out_neighbors(u)) g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

std::string graph::to_dot(const std::string& name) const {
  std::ostringstream os;
  os << (directed_ ? "digraph " : "graph ") << name << " {\n";
  const char* arrow = directed_ ? " -> " : " -- ";
  for (node_id u = 0; u < node_count(); ++u) {
    for (node_id v : out_neighbors(u)) {
      if (!directed_ && v < u) continue;  // emit each undirected edge once
      os << "  " << u << arrow << v << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string graph::to_edge_list() const {
  std::ostringstream os;
  for (node_id u = 0; u < node_count(); ++u) {
    for (node_id v : out_neighbors(u)) {
      if (!directed_ && v < u) continue;
      os << u << ' ' << v << '\n';
    }
  }
  return os.str();
}

graph graph::from_edge_list(node_id n, const std::string& text,
                            bool directed_edges) {
  graph g = directed_edges ? graph::directed(n) : graph::undirected(n);
  std::istringstream is(text);
  node_id u = 0;
  node_id v = 0;
  while (is >> u >> v) g.add_edge(u, v);
  g.finalize();
  return g;
}

}  // namespace radiocast
