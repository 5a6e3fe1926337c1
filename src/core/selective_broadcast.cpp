#include "core/selective_broadcast.h"

#include <algorithm>

#include "sim/soa_engine.h"
#include "util/assert.h"
#include "util/math.h"

namespace radiocast {

namespace {
constexpr message_kind kSelectivePayload = 1;
}  // namespace

// The protocol (sim/soa_engine.h traits), built by
// selective_broadcast_protocol::traits: the family stays shared
// configuration on the traits object; a node's state is its label and
// informed flag.
struct selective_soa_traits {
  std::shared_ptr<const set_family> family;  // every set sorted

  // Per-step cache (begin_step hoist): F_{step mod |F|}, the same set for
  // every node.
  const std::vector<int>* current = nullptr;

  struct state {
    node_id label = 0;
    bool informed = false;
  };

  void begin_step(std::int64_t step) {
    const auto size = static_cast<std::int64_t>(family->size());
    current = &(*family)[static_cast<std::size_t>(step % size)];
  }

  void init(state* s, node_id label, const protocol_params&) const {
    s->label = label;
    s->informed = (label == 0);
  }

  std::optional<message> on_step(state* s, const node_context&) const {
    if (!s->informed) return std::nullopt;
    if (std::binary_search(current->begin(), current->end(),
                           static_cast<int>(s->label))) {
      return message{kSelectivePayload, s->label, 0, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }

  void on_restart(state* s, const node_context&) const {
    s->informed = (s->label == 0);  // the family is configuration
  }
};

selective_broadcast_protocol::selective_broadcast_protocol(node_id r, int k)
    : r_(r), k_(k) {
  RC_REQUIRE(r >= 1);
  RC_REQUIRE(k >= 1);
  // Pair-separation: two labels ≤ r collide modulo at most log₂(r)/log₂(q)
  // primes q; with k·⌈log₂(r+1)⌉ + 1 primes ≥ k, every |X| ≤ k has a prime
  // separating one element from the rest.
  const int primes = k * std::max(1, ilog2_ceil(
                             static_cast<std::uint64_t>(r) + 1)) + 1;
  auto family = std::make_shared<set_family>(
      modular_selective_family(static_cast<int>(r) + 1, k, primes));
  for (auto& set : *family) std::sort(set.begin(), set.end());
  family_ = std::move(family);
}

std::string selective_broadcast_protocol::name() const {
  return "selective-family(k=" + std::to_string(k_) + ")";
}

std::int64_t selective_broadcast_protocol::family_size() const {
  return static_cast<std::int64_t>(family_->size());
}

selective_soa_traits selective_broadcast_protocol::traits(node_id r) const {
  RC_REQUIRE_MSG(r <= r_,
                 "protocol built for a smaller label bound than the run's");
  selective_soa_traits t;
  t.family = family_;
  return t;
}

const soa_entry* selective_broadcast_protocol::soa_runner() const {
  return &soa_entry_for<&selective_broadcast_protocol::traits>;
}

}  // namespace radiocast
