#pragma once
// Phase III: Gossip-max (Algorithm 4) and Data-spread (Algorithm 5).
//
// All roots of the ranking forest run uniform gossip over the virtual
// clique G~ = clique(V~).  In each round of the *gossip procedure* every
// root selects a node uniformly at random from all of V and sends it its
// current maximum; a non-root forwards the message to its root (one extra
// round and message -- at most two hops of G per edge of G~, and the
// non-address-oblivious step, since the forwarding uses the root address
// learned in Phase II).  Theorem 5: after O(log n) such rounds a constant
// fraction of the roots holds the global Max.  In the *sampling procedure*
// every root inquires O(log n) random nodes; the inquired root replies
// directly to the origin.  Theorem 6: afterwards all roots know Max whp.
// Both procedures cost O(n) messages since |V~| = O(n / log n).
//
// Data-spread is Gossip-max started from a single root's key with every
// other root at "-infinity" (kKeyBottom).

#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg {

struct GossipMaxConfig {
  /// Gossip-procedure rounds = gossip_multiplier * ceil(log2 n).
  double gossip_multiplier = 4.0;
  /// Sampling-procedure rounds = sampling_multiplier * ceil(log2 n).
  double sampling_multiplier = 2.0;
  /// Drain rounds appended after each procedure so in-flight forwarded
  /// messages settle.
  std::uint32_t drain_rounds = 4;
  /// Multiplies both procedures' round budgets (1.0 = the paper's O(log n)
  /// schedule).  The DRR pipelines raise it on diameter-heavy substrates
  /// where neighbor-constrained sampling spreads information in O(diam)
  /// rounds, not O(log n) -- see DrrGossipConfig::phase3_diameter_multiplier.
  double round_budget_scale = 1.0;
  /// On explicit topologies, leave the tree through a uniform random tree
  /// member (the G~ overlay then inherits the substrate's tree-adjacency
  /// connectivity).  No effect on the complete topology.  false restores
  /// the historical root-node-only sampling.
  bool member_relay = true;
  /// Disambiguates RNG streams when one pipeline runs the protocol twice.
  std::uint64_t stream_tag = 0;
};

/// One Gossip-max run, generic in the diffused key (extrema propagation
/// diffuses min-vectors, the routed elect-and-spread (key, estimate)
/// pairs).
template <class Key>
struct GossipMaxRun {
  /// Final key at each node (meaningful at roots).
  std::vector<Key> key;
  /// Snapshot of root keys when the gossip procedure ended (Theorem 5
  /// inspects this: the sampling procedure has not run yet).  Taken by
  /// the dense fixed-round schedule; empty after a routed run.
  std::vector<Key> key_after_gossip;
  sim::Counters counters;
  std::uint32_t rounds = 0;
};
using GossipMaxResult = GossipMaxRun<std::uint64_t>;

/// Runs Gossip-max over the roots of `forest`.  `init_key[v]` is read for
/// every root v (non-root entries ignored).
[[nodiscard]] GossipMaxResult run_gossip_max(const Forest& forest,
                                             std::span<const std::uint64_t> init_key,
                                             const RngFactory& rngs,
                                             const sim::Scenario& scenario = {},
                                             GossipMaxConfig config = {});

/// Algorithm 7's Phase III on real values, shared by the DRR pipelines
/// and the group-merge baseline: every root's value[r] is encoded
/// (encode_ordered), Gossip-max runs, and root_value[r] receives the
/// decoded result (0 at non-roots).  The returned run keeps the keys.
GossipMaxResult gossip_max_of_values(const Forest& forest, std::span<const double> value,
                                     std::vector<double>& root_value,
                                     const RngFactory& rngs, const sim::Scenario& scenario,
                                     const GossipMaxConfig& config);

/// Data-spread (Algorithm 5): diffuses `key` from `source_root` to all
/// roots; every other root starts at kKeyBottom.
[[nodiscard]] GossipMaxResult run_data_spread(const Forest& forest, NodeId source_root,
                                              std::uint64_t key, const RngFactory& rngs,
                                              const sim::Scenario& scenario = {},
                                              GossipMaxConfig config = {});

/// Fraction of roots whose key equals `key` (used by the Theorem 5/6
/// benches and the pipeline's consensus checks).
[[nodiscard]] double fraction_of_roots_with_key(const Forest& forest,
                                                std::span<const std::uint64_t> keys,
                                                std::uint64_t key);

}  // namespace drrg
