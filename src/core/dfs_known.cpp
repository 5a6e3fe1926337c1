#include "core/dfs_known.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/soa_engine.h"
#include "util/assert.h"

namespace radiocast {

namespace {

constexpr message_kind kAnnounce = 1;  // "I have just been visited"
constexpr message_kind kToken = 2;     // a = receiving node's label

}  // namespace

/// What the nodes know a priori, in one label space: rows[label] is the
/// row of the node carrying that label (empty for labels no node carries),
/// and neighbor_labels[slot] holds that row's neighbor labels, sorted.
struct dfs_known_protocol::knowledge {
  /// A node's row: the CSR slots [begin, end) of its graph node.
  struct row {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<row> rows;
  std::vector<node_id> neighbor_labels;
};

namespace {

using knowledge = dfs_known_protocol::knowledge;

/// The rows of `g` under `labels` (empty ⇒ node ids), for labels ≤ r.
knowledge build_knowledge(const graph& g, node_id r,
                          const std::vector<node_id>& labels) {
  const node_id n = g.node_count();
  RC_REQUIRE(r >= n - 1);
  RC_REQUIRE_MSG(labels.empty() || labels.size() == static_cast<std::size_t>(n),
                 "labels must cover every node");
  const auto label_of = [&labels](node_id v) {
    return labels.empty() ? v : labels[static_cast<std::size_t>(v)];
  };
  knowledge k;
  k.rows.resize(static_cast<std::size_t>(r) + 1);
  k.neighbor_labels.resize(g.out_slot_count());
  for (node_id v = 0; v < n; ++v) {
    const node_id own = label_of(v);
    RC_REQUIRE_MSG(own >= 0 && own <= r, "label out of range");
    const auto nbrs = g.out_neighbors(v);
    const std::size_t begin = g.out_edge_base(v);
    const auto first = k.neighbor_labels.begin() +
                       static_cast<std::ptrdiff_t>(begin);
    std::transform(nbrs.begin(), nbrs.end(), first, label_of);
    std::sort(first, first + static_cast<std::ptrdiff_t>(nbrs.size()));
    k.rows[static_cast<std::size_t>(own)] = {begin, begin + nbrs.size()};
  }
  return k;
}

// The protocol (sim/soa_engine.h traits): make_node wraps it in a
// traits_node, soa_runner runs it on every step engine. A node's knowledge
// of its neighbors does not fit the POD state, so it lives in per-run
// arrays the traits point to: the node's row of neighbor labels, and one
// "unvisited" flag per slot of that row. Only the owning node writes its
// flags, and only from init, on_receive and on_restart, which every engine
// runs serially; on_step only reads them, so a sharded phase 1 is
// race-free.
struct dfs_known_soa_traits {
  const knowledge::row* rows = nullptr;      // by label
  const node_id* neighbor_labels = nullptr;  // by slot
  // unvisited[slot − flag_base]: a run's entry owns one flag per slot
  // (flag_base 0); make_node gives a node flags for its own row only
  // (own_flags, based at the row's first slot).
  std::uint8_t* unvisited = nullptr;
  std::size_t flag_base = 0;
  std::shared_ptr<std::uint8_t[]> own_flags;

  struct state {
    node_id label = 0;
    node_id parent = -1;
    std::int64_t pending_announce = -1;
    std::int64_t act_at = -1;
    bool informed = false;
    bool visited = false;
    bool holder = false;
    bool halted = false;
  };

  // radiocast-analyze: hot-path-begin -- the per-node hooks, called for
  // every awake node (on_step) or every delivery (on_receive).
  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    reset(s);
  }

  std::optional<message> on_step(state* s, const node_context& ctx) const {
    if (s->label == 0 && ctx.step == 0) {
      // The source opens with its announcement and becomes the holder.
      s->holder = true;
      s->act_at = 1;
      return message{kAnnounce, 0, 0, 0, 0, 0};
    }
    if (s->pending_announce == ctx.step) {
      s->pending_announce = -1;
      s->holder = true;
      s->act_at = ctx.step + 1;
      return message{kAnnounce, s->label, 0, 0, 0, 0};
    }
    if (s->holder && s->act_at == ctx.step) {
      s->holder = false;
      const node_id next = lowest_unvisited(*s);
      if (next >= 0) return message{kToken, s->label, next, 0, 0, 0};
      s->halted = true;
      if (s->label == 0) return std::nullopt;  // traversal complete
      return message{kToken, s->label, s->parent, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context& ctx,
                  const message& msg) const {
    s->informed = true;
    switch (msg.kind) {
      case kAnnounce:
        mark_visited(*s, msg.from);
        break;
      case kToken:
        mark_visited(*s, msg.from);  // the sender necessarily was visited
        if (static_cast<node_id>(msg.a) != s->label) break;
        if (!s->visited) {
          s->visited = true;
          s->parent = msg.from;
          s->pending_announce = ctx.step + 1;  // announce, then act
        } else {
          s->holder = true;  // a child returned the token
          s->act_at = ctx.step + 1;
        }
        break;
      default:
        break;
    }
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state& s) const { return s.halted; }

  // Calendar hint (sim/protocol.h SLEEP CONTRACT): the source's opening,
  // else the earlier of a pending announcement and the holder's action,
  // counting only steps after `step`.
  std::int64_t next_poll(const state& s, std::int64_t step) const {
    if (s.label == 0 && step < 0) return 0;
    std::int64_t wake = kWakeOnReceive;
    if (s.pending_announce > step) wake = s.pending_announce;
    if (s.holder && s.act_at > step) wake = std::min(wake, s.act_at);
    return wake;
  }

  // Amnesia reboot: the rows are configuration (known topology); the
  // visitation record and token state are volatile.
  void on_restart(state* s, const node_context&) const { reset(s); }

  void reset(state* s) const {
    s->informed = s->visited = (s->label == 0);
    s->holder = false;
    s->halted = false;
    s->parent = -1;
    s->pending_announce = -1;
    s->act_at = -1;
    const knowledge::row row = rows[static_cast<std::size_t>(s->label)];
    for (std::size_t i = row.begin; i < row.end; ++i) {
      unvisited[i - flag_base] = 1;
    }
  }

  void mark_visited(const state& s, node_id who) const {
    const knowledge::row row = rows[static_cast<std::size_t>(s.label)];
    const node_id* first = neighbor_labels + row.begin;
    const node_id* last = neighbor_labels + row.end;
    const node_id* it = std::lower_bound(first, last, who);
    if (it != last && *it == who) {
      unvisited[static_cast<std::size_t>(it - neighbor_labels) - flag_base] =
          0;
    }
  }

  node_id lowest_unvisited(const state& s) const {
    const knowledge::row row = rows[static_cast<std::size_t>(s.label)];
    for (std::size_t i = row.begin; i < row.end; ++i) {
      if (unvisited[i - flag_base] != 0) return neighbor_labels[i];
    }
    return -1;
  }
  // radiocast-analyze: hot-path-end
};

dfs_known_soa_traits traits_over(const knowledge& k) {
  dfs_known_soa_traits t;
  t.rows = k.rows.data();
  t.neighbor_labels = k.neighbor_labels.data();
  return t;
}

run_result dfs_known_entry(const graph& g, const protocol&, node_id r,
                           const run_options& opts) {
  const knowledge k = build_knowledge(g, r, opts.labels);
  std::vector<std::uint8_t> unvisited(k.neighbor_labels.size());
  dfs_known_soa_traits traits = traits_over(k);
  traits.unvisited = unvisited.data();
  return run_broadcast_soa(g, traits, r, opts);
}

}  // namespace

dfs_known_protocol::dfs_known_protocol(const graph& g) {
  RC_REQUIRE_MSG(!g.is_directed(),
                 "the DFS baseline runs on undirected networks");
  identity_ = std::make_shared<const knowledge>(
      build_knowledge(g, g.node_count() - 1, {}));
}

dfs_known_protocol::~dfs_known_protocol() = default;

std::unique_ptr<protocol_node> dfs_known_protocol::make_node(
    node_id label, const protocol_params& params) const {
  RC_REQUIRE_MSG(label >= 0 &&
                     static_cast<std::size_t>(label) < identity_->rows.size(),
                 "make_node takes node ids as labels");
  const knowledge::row row = identity_->rows[static_cast<std::size_t>(label)];
  dfs_known_soa_traits traits = traits_over(*identity_);
  traits.own_flags = std::make_shared<std::uint8_t[]>(row.end - row.begin);
  traits.unvisited = traits.own_flags.get();
  traits.flag_base = row.begin;
  return make_traits_node(std::move(traits), label, params);
}

soa_entry dfs_known_protocol::soa_runner() const { return &dfs_known_entry; }

}  // namespace radiocast
