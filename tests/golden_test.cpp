// Golden pins: fixed-seed digests of whole runs on step_engine::reference.
//
// Every shipped protocol is pinned on three graph families (sparse G(n,p),
// complete layered, random tree), fault-free and under retain-mode
// crash-recovery. A digest folds the run's steps, informed_step,
// transmissions, collisions, deliveries and the full informed_at vector.
// The lower-bound adversary is pinned too: it drives the protocol's
// node_bank by node index, so its edge lists cover the by-index path that
// the engines do not take.
//
// The values were captured from the hand-written per-node protocol classes
// that predate the single traits implementation (dfs_known's from its last
// hand-written node, on the per-node reference loop); any behavioural
// drift in a protocol, in the traits adapter, or in the engine routing
// changes a digest. A mismatch prints the observed pin line.
//
// Metric pins digest the whole metrics export (to_json().dump()) of the
// instrumented protocols, fault-free and under retain-mode crash-recovery,
// so a change to how protocols reach their instruments cannot move a
// counter, gauge, histogram or series unnoticed.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/lower_bound_builder.h"
#include "core/dfs_known.h"
#include "core/interleaved.h"
#include "core/kp_randomized.h"
#include "core/round_robin.h"
#include "core/runner.h"
#include "core/select_and_send.h"
#include "fault/recovery.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace radiocast {
namespace {

struct fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= u & 0xff;
      h *= 0x100000001b3ULL;
      u >>= 8;
    }
  }
};

std::uint64_t run_digest(const run_result& r) {
  fnv informed;
  for (const std::int64_t s : r.informed_at) informed.add(s);
  fnv d;
  d.add(r.steps);
  d.add(r.informed_step);
  d.add(r.transmissions);
  d.add(r.collisions);
  d.add(r.deliveries);
  d.add(static_cast<std::int64_t>(informed.h));
  return d.h;
}

std::uint64_t text_digest(const std::string& text) {
  fnv d;
  for (const char c : text) d.add(static_cast<unsigned char>(c));
  return d.h;
}

std::uint64_t network_digest(const adversarial_network& net) {
  fnv d;
  d.add(net.g.node_count());
  for (node_id u = 0; u < net.g.node_count(); ++u) {
    d.add(-1);
    for (const node_id v : net.g.out_neighbors(u)) d.add(v);
  }
  d.add(net.forced_steps);
  d.add(net.stuck ? 1 : 0);
  for (const std::int64_t t : net.spine_first_tx) d.add(t);
  return d.h;
}

using protocol_factory =
    std::function<std::unique_ptr<protocol>(const graph& g)>;

std::vector<std::pair<std::string, protocol_factory>> pinned_protocols() {
  const auto by_name = [](const char* name, int known_d) {
    return [name, known_d](const graph& g) {
      return make_protocol(name, g.node_count() - 1, known_d);
    };
  };
  return {
      {"decay", by_name("decay", -1)},
      {"dfs-known",
       [](const graph& g) -> std::unique_ptr<protocol> {
         return std::make_unique<dfs_known_protocol>(g);
       }},
      {"kp-doubling", by_name("kp-doubling", -1)},
      {"kp-d4", by_name("kp", 4)},
      {"kp-ablated-d4", by_name("kp-ablated", 4)},
      {"kp-bgi-fallback",
       [](const graph& g) -> std::unique_ptr<protocol> {
         kp_options o;
         o.known_d = 4;
         o.paper_bgi_threshold = true;
         return std::make_unique<kp_randomized_protocol>(g.node_count() - 1,
                                                         o);
       }},
      {"round-robin", by_name("round-robin", -1)},
      {"select-and-send", by_name("select-and-send", -1)},
      {"complete-layered", by_name("complete-layered", -1)},
      {"interleaved", by_name("interleaved", -1)},
      {"selective",
       [](const graph& g) {
         return make_protocol("selective", g.node_count() - 1,
                              max_degree(g) + 1);
       }},
  };
}

// Observed digests, keyed "<protocol>/<graph>/<faults>/seed<k>".
std::map<std::string, std::uint64_t> observe_runs() {
  rng topo(4242);
  std::vector<std::pair<std::string, graph>> graphs;
  graphs.emplace_back("gnp40", make_gnp_connected(40, 0.12, topo));
  graphs.emplace_back("layered40", make_complete_layered_uniform(40, 5));
  graphs.emplace_back("tree40", make_random_tree(40, topo));

  std::map<std::string, std::uint64_t> out;
  for (const auto& [gtag, g] : graphs) {
    for (const auto& [ptag, factory] : pinned_protocols()) {
      const auto proto = factory(g);
      for (const bool crash : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          fault::recovery_options ro;
          ro.crash_probability = 0.004;
          ro.mode = fault::recovery_mode::retain;
          ro.downtime = 6;
          fault::recovery_model faults(ro);
          run_options opts;
          opts.seed = seed;
          opts.max_steps = 20'000;
          opts.engine = step_engine::reference;
          opts.faults = crash ? &faults : nullptr;
          const run_result r = run_broadcast(g, *proto, opts);
          out[ptag + "/" + gtag + (crash ? "/retain" : "/faultfree") +
              "/seed" + std::to_string(seed)] = run_digest(r);
        }
      }
    }
  }
  return out;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v << "ULL";
  return os.str();
}

void expect_pins(const std::map<std::string, std::uint64_t>& pins,
                 const std::map<std::string, std::uint64_t>& observed) {
  EXPECT_EQ(pins.size(), observed.size());
  for (const auto& [key, digest] : observed) {
    const auto it = pins.find(key);
    if (it == pins.end()) {
      ADD_FAILURE() << "unpinned: {\"" << key << "\", " << hex(digest)
                    << "},";
      continue;
    }
    EXPECT_EQ(it->second, digest)
        << "observed: {\"" << key << "\", " << hex(digest) << "},";
  }
}

const std::map<std::string, std::uint64_t> kRunPins = {
    {"complete-layered/gnp40/faultfree/seed1", 0x14574142c46fd53cULL},
    {"complete-layered/gnp40/faultfree/seed2", 0x14574142c46fd53cULL},
    {"complete-layered/gnp40/faultfree/seed3", 0x14574142c46fd53cULL},
    {"complete-layered/gnp40/retain/seed1", 0x254f1b3f7e99c47fULL},
    {"complete-layered/gnp40/retain/seed2", 0x6bf1783ce9b4940fULL},
    {"complete-layered/gnp40/retain/seed3", 0x74225d6c08236de2ULL},
    {"complete-layered/layered40/faultfree/seed1", 0xeba4cf5bdb49f70fULL},
    {"complete-layered/layered40/faultfree/seed2", 0xeba4cf5bdb49f70fULL},
    {"complete-layered/layered40/faultfree/seed3", 0xeba4cf5bdb49f70fULL},
    {"complete-layered/layered40/retain/seed1", 0xe333b7132ab8799dULL},
    {"complete-layered/layered40/retain/seed2", 0x70e98386675bccd2ULL},
    {"complete-layered/layered40/retain/seed3", 0xa100200b15d825ceULL},
    {"complete-layered/tree40/faultfree/seed1", 0xec7abe53add9faf9ULL},
    {"complete-layered/tree40/faultfree/seed2", 0xec7abe53add9faf9ULL},
    {"complete-layered/tree40/faultfree/seed3", 0xec7abe53add9faf9ULL},
    {"complete-layered/tree40/retain/seed1", 0xab636b84ecfb4302ULL},
    {"complete-layered/tree40/retain/seed2", 0xe46477a93b9d5dd5ULL},
    {"complete-layered/tree40/retain/seed3", 0x5829359af7535fefULL},
    {"decay/gnp40/faultfree/seed1", 0xe71b56471125420fULL},
    {"decay/gnp40/faultfree/seed2", 0xec89d747dd035b9ULL},
    {"decay/gnp40/faultfree/seed3", 0xb5033bc8c5206c40ULL},
    {"decay/gnp40/retain/seed1", 0xb494961bced07118ULL},
    {"decay/gnp40/retain/seed2", 0x9ca0571e12730051ULL},
    {"decay/gnp40/retain/seed3", 0x59103ad6d65f5adULL},
    {"decay/layered40/faultfree/seed1", 0x1ae904fc0eb9d7c6ULL},
    {"decay/layered40/faultfree/seed2", 0xf6f498f631000f97ULL},
    {"decay/layered40/faultfree/seed3", 0xbef0f5713c13d6faULL},
    {"decay/layered40/retain/seed1", 0x741b7e3642c7990eULL},
    {"decay/layered40/retain/seed2", 0x2d75bcccf3b8227eULL},
    {"decay/layered40/retain/seed3", 0x6810bc45dda8b3daULL},
    {"decay/tree40/faultfree/seed1", 0xc01cb302649475daULL},
    {"decay/tree40/faultfree/seed2", 0x9095fa44276814e8ULL},
    {"decay/tree40/faultfree/seed3", 0x7b56ccc02e650dacULL},
    {"decay/tree40/retain/seed1", 0x8c2e7d48f03e2f7fULL},
    {"decay/tree40/retain/seed2", 0x5c2219d2ebae315eULL},
    {"decay/tree40/retain/seed3", 0x75922e92c77807feULL},
    {"dfs-known/gnp40/faultfree/seed1", 0xdee44bf66d04da31ULL},
    {"dfs-known/gnp40/faultfree/seed2", 0xdee44bf66d04da31ULL},
    {"dfs-known/gnp40/faultfree/seed3", 0xdee44bf66d04da31ULL},
    {"dfs-known/gnp40/retain/seed1", 0xb2cec2605f4db9a5ULL},
    {"dfs-known/gnp40/retain/seed2", 0xd7c124d9ea4df97ULL},
    {"dfs-known/gnp40/retain/seed3", 0x18f877d12135866aULL},
    {"dfs-known/layered40/faultfree/seed1", 0x279d04877bc88780ULL},
    {"dfs-known/layered40/faultfree/seed2", 0x279d04877bc88780ULL},
    {"dfs-known/layered40/faultfree/seed3", 0x279d04877bc88780ULL},
    {"dfs-known/layered40/retain/seed1", 0x8a0da6db4a85bd3eULL},
    {"dfs-known/layered40/retain/seed2", 0xf60707e4f3f1cd7fULL},
    {"dfs-known/layered40/retain/seed3", 0x9e10dc91514dc385ULL},
    {"dfs-known/tree40/faultfree/seed1", 0xd0a75ae76707dd18ULL},
    {"dfs-known/tree40/faultfree/seed2", 0xd0a75ae76707dd18ULL},
    {"dfs-known/tree40/faultfree/seed3", 0xd0a75ae76707dd18ULL},
    {"dfs-known/tree40/retain/seed1", 0x4de5dc373c540287ULL},
    {"dfs-known/tree40/retain/seed2", 0xba4685d95dc4e6cbULL},
    {"dfs-known/tree40/retain/seed3", 0x7ad504a6f3689349ULL},
    {"interleaved/gnp40/faultfree/seed1", 0x314f63cb96620079ULL},
    {"interleaved/gnp40/faultfree/seed2", 0x314f63cb96620079ULL},
    {"interleaved/gnp40/faultfree/seed3", 0x314f63cb96620079ULL},
    {"interleaved/gnp40/retain/seed1", 0xac166d25f547f616ULL},
    {"interleaved/gnp40/retain/seed2", 0x7ea929840e763e78ULL},
    {"interleaved/gnp40/retain/seed3", 0xab84e636cf4cc80aULL},
    {"interleaved/layered40/faultfree/seed1", 0xe8a7dbc2a04f780dULL},
    {"interleaved/layered40/faultfree/seed2", 0xe8a7dbc2a04f780dULL},
    {"interleaved/layered40/faultfree/seed3", 0xe8a7dbc2a04f780dULL},
    {"interleaved/layered40/retain/seed1", 0xe28fd746b67bd635ULL},
    {"interleaved/layered40/retain/seed2", 0xbf2347de493f48d7ULL},
    {"interleaved/layered40/retain/seed3", 0xa56d2772f806acecULL},
    {"interleaved/tree40/faultfree/seed1", 0xcad0c494ba79514eULL},
    {"interleaved/tree40/faultfree/seed2", 0xcad0c494ba79514eULL},
    {"interleaved/tree40/faultfree/seed3", 0xcad0c494ba79514eULL},
    {"interleaved/tree40/retain/seed1", 0xee1a92279e77d075ULL},
    {"interleaved/tree40/retain/seed2", 0x688e6c75b8f3f027ULL},
    {"interleaved/tree40/retain/seed3", 0x648598116cdb2504ULL},
    {"kp-ablated-d4/gnp40/faultfree/seed1", 0x9ff1053a603c2f20ULL},
    {"kp-ablated-d4/gnp40/faultfree/seed2", 0xc3f0b97d2a4c3a41ULL},
    {"kp-ablated-d4/gnp40/faultfree/seed3", 0x4bae20e899668194ULL},
    {"kp-ablated-d4/gnp40/retain/seed1", 0xe949428d277add15ULL},
    {"kp-ablated-d4/gnp40/retain/seed2", 0xafc103567f95c16fULL},
    {"kp-ablated-d4/gnp40/retain/seed3", 0xb09b4634510a4adeULL},
    {"kp-ablated-d4/layered40/faultfree/seed1", 0xfa8d283056af3162ULL},
    {"kp-ablated-d4/layered40/faultfree/seed2", 0xd384fe47e33856b2ULL},
    {"kp-ablated-d4/layered40/faultfree/seed3", 0xc75b7b92a394ce83ULL},
    {"kp-ablated-d4/layered40/retain/seed1", 0x75bca83c8febf3a4ULL},
    {"kp-ablated-d4/layered40/retain/seed2", 0x79ed98437269e26bULL},
    {"kp-ablated-d4/layered40/retain/seed3", 0x85bb1b598d4d157bULL},
    {"kp-ablated-d4/tree40/faultfree/seed1", 0x85eaf2358e649e1cULL},
    {"kp-ablated-d4/tree40/faultfree/seed2", 0xbc675efa1f49b96aULL},
    {"kp-ablated-d4/tree40/faultfree/seed3", 0x18a196af68bbbcafULL},
    {"kp-ablated-d4/tree40/retain/seed1", 0x82ee31f00a749e3cULL},
    {"kp-ablated-d4/tree40/retain/seed2", 0xc8928086ff6ff86cULL},
    {"kp-ablated-d4/tree40/retain/seed3", 0x2ee8b7c8a42425e5ULL},
    {"kp-bgi-fallback/gnp40/faultfree/seed1", 0xe71b56471125420fULL},
    {"kp-bgi-fallback/gnp40/faultfree/seed2", 0xec89d747dd035b9ULL},
    {"kp-bgi-fallback/gnp40/faultfree/seed3", 0xb5033bc8c5206c40ULL},
    {"kp-bgi-fallback/gnp40/retain/seed1", 0xb494961bced07118ULL},
    {"kp-bgi-fallback/gnp40/retain/seed2", 0x9ca0571e12730051ULL},
    {"kp-bgi-fallback/gnp40/retain/seed3", 0x59103ad6d65f5adULL},
    {"kp-bgi-fallback/layered40/faultfree/seed1", 0x1ae904fc0eb9d7c6ULL},
    {"kp-bgi-fallback/layered40/faultfree/seed2", 0xf6f498f631000f97ULL},
    {"kp-bgi-fallback/layered40/faultfree/seed3", 0xbef0f5713c13d6faULL},
    {"kp-bgi-fallback/layered40/retain/seed1", 0x741b7e3642c7990eULL},
    {"kp-bgi-fallback/layered40/retain/seed2", 0x2d75bcccf3b8227eULL},
    {"kp-bgi-fallback/layered40/retain/seed3", 0x6810bc45dda8b3daULL},
    {"kp-bgi-fallback/tree40/faultfree/seed1", 0xc01cb302649475daULL},
    {"kp-bgi-fallback/tree40/faultfree/seed2", 0x9095fa44276814e8ULL},
    {"kp-bgi-fallback/tree40/faultfree/seed3", 0x7b56ccc02e650dacULL},
    {"kp-bgi-fallback/tree40/retain/seed1", 0x8c2e7d48f03e2f7fULL},
    {"kp-bgi-fallback/tree40/retain/seed2", 0x5c2219d2ebae315eULL},
    {"kp-bgi-fallback/tree40/retain/seed3", 0x75922e92c77807feULL},
    {"kp-d4/gnp40/faultfree/seed1", 0x60d2d7332a599bd1ULL},
    {"kp-d4/gnp40/faultfree/seed2", 0xe4c8b7bb8903c1b7ULL},
    {"kp-d4/gnp40/faultfree/seed3", 0xaa6d09e8ec0cc97cULL},
    {"kp-d4/gnp40/retain/seed1", 0xa978314666ad9c06ULL},
    {"kp-d4/gnp40/retain/seed2", 0xd6b8e5bda3824fb0ULL},
    {"kp-d4/gnp40/retain/seed3", 0x855f515ab1bb527fULL},
    {"kp-d4/layered40/faultfree/seed1", 0xa7748721d385214bULL},
    {"kp-d4/layered40/faultfree/seed2", 0xc9cf83300bb1deefULL},
    {"kp-d4/layered40/faultfree/seed3", 0xda575771004e2dadULL},
    {"kp-d4/layered40/retain/seed1", 0x34c414616c6f4cffULL},
    {"kp-d4/layered40/retain/seed2", 0xd720a2c82e1724a7ULL},
    {"kp-d4/layered40/retain/seed3", 0xfd62917638eb4f2aULL},
    {"kp-d4/tree40/faultfree/seed1", 0xb9f97517783652a6ULL},
    {"kp-d4/tree40/faultfree/seed2", 0x7b9b92b2b2054c16ULL},
    {"kp-d4/tree40/faultfree/seed3", 0xcc5458ab8e7bb7d7ULL},
    {"kp-d4/tree40/retain/seed1", 0xeef8f234844bae60ULL},
    {"kp-d4/tree40/retain/seed2", 0x4e184cc113abf26bULL},
    {"kp-d4/tree40/retain/seed3", 0xeb9dc79ea05fb555ULL},
    {"kp-doubling/gnp40/faultfree/seed1", 0xd91b05f1fdc10a8fULL},
    {"kp-doubling/gnp40/faultfree/seed2", 0xf9d73d2ee5f0fb72ULL},
    {"kp-doubling/gnp40/faultfree/seed3", 0xeb8fa6a2408d0103ULL},
    {"kp-doubling/gnp40/retain/seed1", 0x850e1d2f1d59afeULL},
    {"kp-doubling/gnp40/retain/seed2", 0x21f6a959d6c2ed0aULL},
    {"kp-doubling/gnp40/retain/seed3", 0x48c38dc4ae1d1a47ULL},
    {"kp-doubling/layered40/faultfree/seed1", 0x495312724114fde7ULL},
    {"kp-doubling/layered40/faultfree/seed2", 0xce79308f2fa23875ULL},
    {"kp-doubling/layered40/faultfree/seed3", 0xf577eca3a7ef0c47ULL},
    {"kp-doubling/layered40/retain/seed1", 0x66258c5e48cfd12eULL},
    {"kp-doubling/layered40/retain/seed2", 0xe603c880819681fdULL},
    {"kp-doubling/layered40/retain/seed3", 0x94f63b8ed7ff9648ULL},
    {"kp-doubling/tree40/faultfree/seed1", 0x6956215d915625efULL},
    {"kp-doubling/tree40/faultfree/seed2", 0xfd5234c9d2caa88ULL},
    {"kp-doubling/tree40/faultfree/seed3", 0xdac03e8aa7a13fe0ULL},
    {"kp-doubling/tree40/retain/seed1", 0x56ba8fbc1cebb38bULL},
    {"kp-doubling/tree40/retain/seed2", 0x33e1b2135aafc3fbULL},
    {"kp-doubling/tree40/retain/seed3", 0x1d0c28e0f05b90a5ULL},
    {"round-robin/gnp40/faultfree/seed1", 0x895fb9ee42e04091ULL},
    {"round-robin/gnp40/faultfree/seed2", 0x895fb9ee42e04091ULL},
    {"round-robin/gnp40/faultfree/seed3", 0x895fb9ee42e04091ULL},
    {"round-robin/gnp40/retain/seed1", 0xa3bf78b8522cf8aeULL},
    {"round-robin/gnp40/retain/seed2", 0xa05c464637f2be64ULL},
    {"round-robin/gnp40/retain/seed3", 0xb0dbd096d6032ccdULL},
    {"round-robin/layered40/faultfree/seed1", 0x1883f621cfb9892dULL},
    {"round-robin/layered40/faultfree/seed2", 0x1883f621cfb9892dULL},
    {"round-robin/layered40/faultfree/seed3", 0x1883f621cfb9892dULL},
    {"round-robin/layered40/retain/seed1", 0x6401cd4062a44ae3ULL},
    {"round-robin/layered40/retain/seed2", 0x9df188ef254703f7ULL},
    {"round-robin/layered40/retain/seed3", 0x1ae75082ff340ef6ULL},
    {"round-robin/tree40/faultfree/seed1", 0x3a03ff96c21b0222ULL},
    {"round-robin/tree40/faultfree/seed2", 0x3a03ff96c21b0222ULL},
    {"round-robin/tree40/faultfree/seed3", 0x3a03ff96c21b0222ULL},
    {"round-robin/tree40/retain/seed1", 0x33b84b63db6fd6caULL},
    {"round-robin/tree40/retain/seed2", 0x3a03ff96c21b0222ULL},
    {"round-robin/tree40/retain/seed3", 0xfe908959d48debc0ULL},
    {"select-and-send/gnp40/faultfree/seed1", 0x6b40cfbc51414baeULL},
    {"select-and-send/gnp40/faultfree/seed2", 0x6b40cfbc51414baeULL},
    {"select-and-send/gnp40/faultfree/seed3", 0x6b40cfbc51414baeULL},
    {"select-and-send/gnp40/retain/seed1", 0xb2d38871ebba1a1fULL},
    {"select-and-send/gnp40/retain/seed2", 0x9437aa28275f2f7fULL},
    {"select-and-send/gnp40/retain/seed3", 0x550c4adeb637443cULL},
    {"select-and-send/layered40/faultfree/seed1", 0xd644fb394214173bULL},
    {"select-and-send/layered40/faultfree/seed2", 0xd644fb394214173bULL},
    {"select-and-send/layered40/faultfree/seed3", 0xd644fb394214173bULL},
    {"select-and-send/layered40/retain/seed1", 0xa43d76bf54fa8c8aULL},
    {"select-and-send/layered40/retain/seed2", 0xfd66a32504c1aa48ULL},
    {"select-and-send/layered40/retain/seed3", 0x8549e8f5f8e382bfULL},
    {"select-and-send/tree40/faultfree/seed1", 0x29cb7c2b1f329acfULL},
    {"select-and-send/tree40/faultfree/seed2", 0x29cb7c2b1f329acfULL},
    {"select-and-send/tree40/faultfree/seed3", 0x29cb7c2b1f329acfULL},
    {"select-and-send/tree40/retain/seed1", 0x6eabf1b5fc8f1c24ULL},
    {"select-and-send/tree40/retain/seed2", 0x73caa6dd110a3cddULL},
    {"select-and-send/tree40/retain/seed3", 0x17248f1bd69a43dULL},
    {"selective/gnp40/faultfree/seed1", 0xa8bba042b14aa983ULL},
    {"selective/gnp40/faultfree/seed2", 0xa8bba042b14aa983ULL},
    {"selective/gnp40/faultfree/seed3", 0xa8bba042b14aa983ULL},
    {"selective/gnp40/retain/seed1", 0x3a2bae9642407ff6ULL},
    {"selective/gnp40/retain/seed2", 0x71fda42f6be9a6a5ULL},
    {"selective/gnp40/retain/seed3", 0x667f7270ec31d322ULL},
    {"selective/layered40/faultfree/seed1", 0x27964b7cf2c27340ULL},
    {"selective/layered40/faultfree/seed2", 0x27964b7cf2c27340ULL},
    {"selective/layered40/faultfree/seed3", 0x27964b7cf2c27340ULL},
    {"selective/layered40/retain/seed1", 0x996b12c76d1cc36cULL},
    {"selective/layered40/retain/seed2", 0xb917cc7f51d52a60ULL},
    {"selective/layered40/retain/seed3", 0xfef846b87d310f27ULL},
    {"selective/tree40/faultfree/seed1", 0xa8f2a83e71fb1123ULL},
    {"selective/tree40/faultfree/seed2", 0xa8f2a83e71fb1123ULL},
    {"selective/tree40/faultfree/seed3", 0xa8f2a83e71fb1123ULL},
    {"selective/tree40/retain/seed1", 0x531c00c6a1443bd5ULL},
    {"selective/tree40/retain/seed2", 0x2a046517b294064cULL},
    {"selective/tree40/retain/seed3", 0xa395f5a8d825242dULL},
};

const std::map<std::string, std::uint64_t> kAdversaryPins = {
    {"interleaved", 0xb95ca36b50361b08ULL},
    {"round-robin", 0x8634521356424a6cULL},
    {"select-and-send", 0xe32268dd552eaff4ULL},
};

TEST(GoldenTest, ReferenceRunDigests) { expect_pins(kRunPins, observe_runs()); }

TEST(GoldenTest, AdversarialNetworkDigests) {
  const node_id n = 256;
  const int d = 8;
  const round_robin_protocol rr;
  const select_and_send_protocol sas;
  const interleaved_protocol inter;
  std::map<std::string, std::uint64_t> observed;
  observed["round-robin"] = network_digest(build_adversarial_network(rr, n, d));
  observed["select-and-send"] =
      network_digest(build_adversarial_network(sas, n, d));
  observed["interleaved"] =
      network_digest(build_adversarial_network(inter, n, d));
  expect_pins(kAdversaryPins, observed);
}

// Metrics exports of the instrumented protocols on one fixed graph, keyed
// "<protocol>/<faults>/seed<k>". Every run is observed on the reference and
// the soa engine; the two exports must match before the digest is taken.
// "select-and-send-halted" runs the traversal to all_halted, so its export
// also holds sas.subtrees_completed. `saw_recoveries` reports whether any
// export counted echo.recoveries.
std::map<std::string, std::uint64_t> observe_metric_exports(
    bool* saw_recoveries) {
  rng topo(4242);
  const graph g = make_gnp_connected(40, 0.12, topo);
  const std::vector<std::pair<std::string, int>> protos = {
      {"decay", -1},           {"kp", 4},
      {"kp-doubling", -1},     {"select-and-send", -1},
      {"interleaved", -1},     {"complete-layered", -1},
      {"select-and-send-halted", -1},
  };
  *saw_recoveries = false;
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, known_d] : protos) {
    const bool halted = name == "select-and-send-halted";
    const auto proto = make_protocol(halted ? "select-and-send" : name,
                                     g.node_count() - 1, known_d);
    for (const bool crash : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        std::string exports[2];
        int e = 0;
        for (const step_engine engine :
             {step_engine::reference, step_engine::soa}) {
          fault::recovery_options ro;
          ro.crash_probability = 0.01;
          ro.mode = fault::recovery_mode::retain;
          ro.downtime = 6;
          fault::recovery_model faults(ro);
          obs::metrics_registry metrics;
          run_options opts;
          opts.seed = seed;
          opts.max_steps = 20'000;
          opts.engine = engine;
          opts.faults = crash ? &faults : nullptr;
          opts.metrics = &metrics;
          if (halted) opts.stop = stop_condition::all_halted;
          run_broadcast(g, *proto, opts);
          const obs::counter* rec = metrics.find_counter("echo.recoveries");
          if (rec != nullptr && rec->value() > 0) *saw_recoveries = true;
          exports[e++] = metrics.to_json().dump();
        }
        const std::string key = name + (crash ? "/retain" : "/faultfree") +
                                "/seed" + std::to_string(seed);
        EXPECT_EQ(exports[0], exports[1]) << key;
        out[key] = text_digest(exports[0]);
      }
    }
  }
  return out;
}

const std::map<std::string, std::uint64_t> kMetricPins = {
    {"complete-layered/faultfree/seed1", 0xfd8c2add601fe430ULL},
    {"complete-layered/faultfree/seed2", 0xfd8c2add601fe430ULL},
    {"complete-layered/retain/seed1", 0x71423dcc480d0b05ULL},
    {"complete-layered/retain/seed2", 0x8002509ac7d643aeULL},
    {"decay/faultfree/seed1", 0x7f11e15ff61be671ULL},
    {"decay/faultfree/seed2", 0x9ae8c0bf6b7813a9ULL},
    {"decay/retain/seed1", 0xc75ba67d215ebb81ULL},
    {"decay/retain/seed2", 0x5a87fcb54001f83aULL},
    {"interleaved/faultfree/seed1", 0x6058dacee8d3e8a0ULL},
    {"interleaved/faultfree/seed2", 0x6058dacee8d3e8a0ULL},
    {"interleaved/retain/seed1", 0x6a20592fe7844a34ULL},
    {"interleaved/retain/seed2", 0x9bad34038ee434dcULL},
    {"kp-doubling/faultfree/seed1", 0x158fe9bd4ffd6c53ULL},
    {"kp-doubling/faultfree/seed2", 0x788d68b867c835e8ULL},
    {"kp-doubling/retain/seed1", 0x9ea6a94dc162b500ULL},
    {"kp-doubling/retain/seed2", 0xab12eadf7147f1c1ULL},
    {"kp/faultfree/seed1", 0x4a07b0de201480e3ULL},
    {"kp/faultfree/seed2", 0x322eb9ac751c88f5ULL},
    {"kp/retain/seed1", 0xba5e3b8a97556e70ULL},
    {"kp/retain/seed2", 0xa6a2509387a89450ULL},
    {"select-and-send-halted/faultfree/seed1", 0x215a46bef1fd472fULL},
    {"select-and-send-halted/faultfree/seed2", 0x215a46bef1fd472fULL},
    {"select-and-send-halted/retain/seed1", 0xfb9f9171422787bdULL},
    {"select-and-send-halted/retain/seed2", 0x57bc3888bbe3edf8ULL},
    {"select-and-send/faultfree/seed1", 0xa49ce7f8ce5c1c07ULL},
    {"select-and-send/faultfree/seed2", 0xa49ce7f8ce5c1c07ULL},
    {"select-and-send/retain/seed1", 0xcfe6f1a5c8fe80e3ULL},
    {"select-and-send/retain/seed2", 0x7ef369785169250fULL},
};

TEST(GoldenTest, MetricExportDigests) {
  bool saw_recoveries = false;
  expect_pins(kMetricPins, observe_metric_exports(&saw_recoveries));
  EXPECT_TRUE(saw_recoveries)
      << "no crash-recovery run exercised echo.recoveries";
}

// Generator pins: every generator in graph/generators.h, plus the graph
// transforms and hand-built graphs, digested row by row (n, directedness,
// edge count, every out-row and every in-row in order). Seeded generators
// run at two seeds and also fold the generator's next draw, so a change in
// how many draws a generator consumes shows too. The sparse G(n, p) at
// p = 0.3/n leaves thousands of components for bridging; the random
// geometric graphs need many bridging rounds. Any change to how a graph is
// stored while it is built must leave every row, in order, as it is.
std::uint64_t graph_digest(const graph& g) {
  fnv d;
  d.add(g.node_count());
  d.add(g.is_directed() ? 1 : 0);
  d.add(static_cast<std::int64_t>(g.edge_count()));
  for (node_id u = 0; u < g.node_count(); ++u) {
    d.add(-1);
    for (const node_id v : g.out_neighbors(u)) d.add(v);
    d.add(-2);
    for (const node_id v : g.in_neighbors(u)) d.add(v);
  }
  return d.h;
}

std::map<std::string, std::uint64_t> observe_generators() {
  std::map<std::string, std::uint64_t> out;
  out["path/n50"] = graph_digest(make_path(50));
  out["cycle/n31"] = graph_digest(make_cycle(31));
  out["star/n40"] = graph_digest(make_star(40));
  out["complete/n24"] = graph_digest(make_complete(24));
  out["grid/7x9"] = graph_digest(make_grid(7, 9));
  out["caterpillar/12x3"] = graph_digest(make_caterpillar(12, 3));
  out["complete-layered/1-3-5-2-4"] =
      graph_digest(make_complete_layered({1, 3, 5, 2, 4}));
  out["complete-layered-uniform/n97d6"] =
      graph_digest(make_complete_layered_uniform(97, 6));
  out["complete-layered-fat/n80d5f3"] =
      graph_digest(make_complete_layered_fat(80, 5, 3, 2));
  out["even-split/100x7"] = [] {
    fnv d;
    for (const node_id s : even_split(100, 7)) d.add(s);
    return d.h;
  }();

  const auto seeded = [&out](const std::string& key, auto&& make) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      rng gen(seed * 7919);
      fnv d;
      d.add(static_cast<std::int64_t>(make(gen)));
      d.add(static_cast<std::int64_t>(gen.next()));
      out[key + "/seed" + std::to_string(seed)] = d.h;
    }
  };
  seeded("random-tree/n300",
         [](rng& gen) { return graph_digest(make_random_tree(300, gen)); });
  seeded("bounded-degree-tree/n300d3", [](rng& gen) {
    return graph_digest(make_bounded_degree_tree(300, 3, gen));
  });
  seeded("gnp-dense/n150p0.2", [](rng& gen) {
    return graph_digest(make_gnp_connected(150, 0.2, gen));
  });
  seeded("gnp-connected/n400p0.002", [](rng& gen) {
    return graph_digest(make_gnp_connected(400, 0.002, gen));
  });
  seeded("gnp-sparse/n8192p0.3/n", [](rng& gen) {
    return graph_digest(make_gnp_sparse_connected(8192, 0.3 / 8192, gen));
  });
  seeded("gnp-sparse/n4096p8/n", [](rng& gen) {
    return graph_digest(make_gnp_sparse_connected(4096, 8.0 / 4096, gen));
  });
  seeded("random-layered/1-4-6-3-5p0.3", [](rng& gen) {
    return graph_digest(make_random_layered({1, 4, 6, 3, 5}, 0.3, gen));
  });
  seeded("directed-layered/1-4-6-3-5p0.3", [](rng& gen) {
    return graph_digest(make_directed_layered({1, 4, 6, 3, 5}, 0.3, gen));
  });
  seeded("random-geometric/n300r0.05", [](rng& gen) {
    return graph_digest(make_random_geometric(300, 0.05, gen));
  });
  seeded("random-geometric-positions/n120r0.12", [](rng& gen) {
    std::vector<std::pair<double, double>> points;
    fnv d;
    d.add(static_cast<std::int64_t>(
        graph_digest(make_random_geometric(120, 0.12, gen, points))));
    for (const auto& [x, y] : points) {
      d.add(static_cast<std::int64_t>(x * 1e12));
      d.add(static_cast<std::int64_t>(y * 1e12));
    }
    return d.h;
  });
  seeded("permute-labels/gnp200", [](rng& gen) {
    const graph g = make_gnp_sparse_connected(200, 0.03, gen);
    return graph_digest(permute_labels(g, gen));
  });
  seeded("permute-labels/directed-layered", [](rng& gen) {
    const graph g = make_directed_layered({1, 5, 7, 4}, 0.4, gen);
    return graph_digest(permute_labels(g, gen));
  });
  seeded("sparse-labels/n60r500", [](rng& gen) {
    fnv d;
    for (const node_id l : sparse_labels(60, 500, gen)) d.add(l);
    return d.h;
  });

  const std::vector<node_id> perm = {0, 4, 2, 5, 1, 3};
  out["permute-labels/explicit"] =
      graph_digest(permute_labels(make_grid(2, 3), perm));
  out["as-directed/grid4x5"] = graph_digest(make_grid(4, 5).as_directed());
  out["from-edge-list/undirected"] = graph_digest(
      graph::from_edge_list(6, "0 3\n3 1\n1 0\n5 2\n2 4\n3 0\n4 5\n0 2\n"));
  out["from-edge-list/directed"] = graph_digest(graph::from_edge_list(
      5, "0 1\n1 2\n2 0\n1 2\n4 3\n3 4\n0 4\n", /*directed_edges=*/true));

  // Hand-built: a random stream heavy in duplicates, both directednesses.
  for (const bool directed : {false, true}) {
    rng gen(31337);
    const node_id n = 40;
    graph g = directed ? graph::directed(n) : graph::undirected(n);
    for (int i = 0; i < 600; ++i) {
      const auto u = static_cast<node_id>(gen.below(n));
      const auto v = static_cast<node_id>(gen.below(n));
      if (u != v) g.add_edge(u, v);
    }
    g.finalize();
    out[directed ? "hand-built/duplicates/directed"
                 : "hand-built/duplicates/undirected"] = graph_digest(g);
  }
  // Add, sort while building, add more: a sorted prefix, then the tail.
  for (const bool directed : {false, true}) {
    rng gen(2718);
    const node_id n = 30;
    graph g = directed ? graph::directed(n) : graph::undirected(n);
    const auto adds = [&](int count) {
      for (int i = 0; i < count; ++i) {
        const auto u = static_cast<node_id>(gen.below(n));
        const auto v = static_cast<node_id>(gen.below(n));
        if (u != v) g.add_edge(u, v);
      }
    };
    adds(150);
    g.sort_adjacency();
    adds(120);
    g.finalize();
    out[directed ? "hand-built/sort-then-add/directed"
                 : "hand-built/sort-then-add/undirected"] = graph_digest(g);
  }
  return out;
}

const std::map<std::string, std::uint64_t> kGeneratorPins = {
    {"as-directed/grid4x5", 0x53157d107fbd493eULL},
    {"bounded-degree-tree/n300d3/seed1", 0x6976c235c6ab61ebULL},
    {"bounded-degree-tree/n300d3/seed2", 0xab26359d0a4e6f6eULL},
    {"caterpillar/12x3", 0x28ae7ab0f5106daaULL},
    {"complete-layered-fat/n80d5f3", 0x2409e1e5ff46cd38ULL},
    {"complete-layered-uniform/n97d6", 0x539cff062a38ced2ULL},
    {"complete-layered/1-3-5-2-4", 0x1b07145ece3da0cfULL},
    {"complete/n24", 0xe03729e6a2edd52eULL},
    {"cycle/n31", 0xc5285f26478e6174ULL},
    {"directed-layered/1-4-6-3-5p0.3/seed1", 0x3648c216c1e2de78ULL},
    {"directed-layered/1-4-6-3-5p0.3/seed2", 0x7c7c9f388cd2b953ULL},
    {"even-split/100x7", 0x1f84d931abd166bULL},
    {"from-edge-list/directed", 0x8ac140ecd9e17d92ULL},
    {"from-edge-list/undirected", 0x4eb565e37d6575e4ULL},
    {"gnp-connected/n400p0.002/seed1", 0x5ae99db2260a2452ULL},
    {"gnp-connected/n400p0.002/seed2", 0xa7d2a9e838e97481ULL},
    {"gnp-dense/n150p0.2/seed1", 0xa4ac314186dd0656ULL},
    {"gnp-dense/n150p0.2/seed2", 0xe0d2d248e6ea8592ULL},
    {"gnp-sparse/n4096p8/n/seed1", 0x7b9dbaf2925729e1ULL},
    {"gnp-sparse/n4096p8/n/seed2", 0xef7a2e2819aa6aaULL},
    {"gnp-sparse/n8192p0.3/n/seed1", 0xef7a5e8ee641cea1ULL},
    {"gnp-sparse/n8192p0.3/n/seed2", 0x6d5c3fa9d1874452ULL},
    {"grid/7x9", 0x9148bd77a218d15ULL},
    {"hand-built/duplicates/directed", 0xbf316e544af7855eULL},
    {"hand-built/duplicates/undirected", 0x2e29a6bd2c92fc2ULL},
    {"hand-built/sort-then-add/directed", 0xfdb61fc2d9f4a945ULL},
    {"hand-built/sort-then-add/undirected", 0x8079ee99b9884a76ULL},
    {"path/n50", 0xff554ae0f768dec6ULL},
    {"permute-labels/directed-layered/seed1", 0x54f0df41fde04335ULL},
    {"permute-labels/directed-layered/seed2", 0xeabd50df5187e53dULL},
    {"permute-labels/explicit", 0xe676770f690a9044ULL},
    {"permute-labels/gnp200/seed1", 0x4882a4e36c4ed8f3ULL},
    {"permute-labels/gnp200/seed2", 0xdaad52292ca1fd6eULL},
    {"random-geometric-positions/n120r0.12/seed1", 0xeda1723e75b313c6ULL},
    {"random-geometric-positions/n120r0.12/seed2", 0x5a589961bbcb932bULL},
    {"random-geometric/n300r0.05/seed1", 0xdf3ad9524b56c560ULL},
    {"random-geometric/n300r0.05/seed2", 0xf716dd969314d839ULL},
    {"random-layered/1-4-6-3-5p0.3/seed1", 0x4f5edb804ff0d095ULL},
    {"random-layered/1-4-6-3-5p0.3/seed2", 0x184eec9e5c20cb0dULL},
    {"random-tree/n300/seed1", 0x38d76c5f5f7f777eULL},
    {"random-tree/n300/seed2", 0x176b30890fba2375ULL},
    {"sparse-labels/n60r500/seed1", 0xc411a290856d31bULL},
    {"sparse-labels/n60r500/seed2", 0x759361f33d7b957aULL},
    {"star/n40", 0x2ef1e0b9c78e7aeaULL},
};

TEST(GoldenTest, GeneratorDigests) {
  expect_pins(kGeneratorPins, observe_generators());
}

}  // namespace
}  // namespace radiocast
