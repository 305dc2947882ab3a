#pragma once
// Phase III: Gossip-ave (Algorithm 6) -- push-sum over the forest roots.
//
// Every root holds a pair (s, g) initialised from Convergecast-sum (local
// value sum, tree size).  Each round it keeps (s/2, g/2) and sends the
// other half to a node selected uniformly at random from all of V; a
// non-root forwards to its root (the two-hop G~ edge).  All estimates
// s/g converge to sum(v_i)/n = Ave; Theorem 7 guarantees relative error
// <= 2/(n^alpha - 1) at the largest-tree root z after O(log n) rounds.
//
// Lost-mass recovery is the carrier's custody (rootgossip/carrier.hpp).
// Here, on the dense TreeCarrier, the first receiver of every pushed half
// answers with a 1-bit ack on the established call, and a half whose
// initiating call was lost (crashed target, loss coin) is re-absorbed by
// its sender.  This keeps push-sum's conservation law -- without it, mass
// leaking to crashed nodes skews Ave/Sum/Count badly under crashes even
// at loss 0.  Forward-hop losses (probability loss_prob per hop) stay
// unrecovered: the residual drift is O(loss_prob), zero at loss 0.  The
// routed pipelines' RoutedCarrier can recover those too
// (PushSumConfig::hop_carry_ack).
//
// The implementation is generic in the pair (num, den), which also yields
// Sum and Count: start den as the indicator of a single designated root
// and the common ratio limit becomes sum(num)/1.
//
// Analysis mode (forward_via_trees = false) delivers straight to the
// selected node's root in the same round -- exactly the G~ = clique(V~)
// process Lemma 8 analyses, with selection probability proportional to
// tree size -- and can track the contribution vectors y_{t,i} to report
// the potential Phi_t = sum_{i,j} (y_{t,i,j} - w_{t,i}/m)^2 per round.

#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "rootgossip/gossip_max.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg {

struct PushSumConfig {
  /// Push rounds = rounds_multiplier * ceil(log2 n) + extra_rounds.
  double rounds_multiplier = 4.0;
  std::uint32_t extra_rounds = 8;
  /// Multiplies the push-round budget (1.0 = the paper's O(log n)
  /// schedule); raised by the DRR pipelines on diameter-heavy substrates.
  double round_budget_scale = 1.0;
  /// On explicit topologies, leave the tree through a uniform random tree
  /// member (see GossipMaxConfig::member_relay).  No effect on K_n.
  bool member_relay = true;
  /// Realistic mode: route via the selected node (2 hops per G~ edge).
  /// Analysis mode (false): deliver directly to the selected node's root.
  bool forward_via_trees = true;
  /// Routed pipelines only (sparse/chord substrates): arm the
  /// RoutedCarrier's hop-level carry-ack in place of no custody at all.
  /// Every share hop becomes a custody transfer -- the holder parks the
  /// mass until the next carrier acks on the established call, resends
  /// the hop from its pre-hop route state when the ack window lapses
  /// (lost hop, carrier crashed mid-flight), and re-homes it on a fresh
  /// route when the route stranded at the holder (dead lattice regions).
  /// Closes the per-hop O(loss) mass leak that the dense TreeCarrier's
  /// first-hop ack cannot see (that ack covers only the initiating call).
  /// Off by default: armed runs trade ~1 ack per hop and a wider upcall
  /// scan for conservation under loss.
  bool hop_carry_ack = false;
  /// Track contribution vectors (O(m^2) memory; analysis mode only).
  bool track_potential = false;
  /// Disambiguates RNG streams when one pipeline runs the protocol twice.
  std::uint64_t stream_tag = 0;
};

struct PushSumResult {
  std::vector<double> num;       ///< final numerator at each node (roots)
  std::vector<double> den;       ///< final denominator at each node (roots)
  std::vector<double> estimate;  ///< num/den where den > 0, else 0
  sim::Counters counters;
  std::uint32_t rounds = 0;
  /// track_potential: Phi_t after each round (Lemma 8 predicts halving).
  std::vector<double> potential_per_round;
  /// track_potential: estimate at the largest-tree root z after each round
  /// (Theorem 7's subject).
  std::vector<double> z_estimate_per_round;
};

/// Runs push-sum over the roots of `forest` with initial pairs
/// (num0[r], den0[r]) (non-root entries ignored).
[[nodiscard]] PushSumResult run_root_push_sum(const Forest& forest,
                                              std::span<const double> num0,
                                              std::span<const double> den0,
                                              const RngFactory& rngs,
                                              const sim::Scenario& scenario = {},
                                              PushSumConfig config = {});

/// Algorithm 8's Phase III over the roots of `forest`.
struct RootAverageResult {
  /// Final data-spread key per root: encode_ordered(estimate), or
  /// kKeyBottom where no estimate arrived.
  std::vector<std::uint64_t> key;
  sim::Counters gossip;  ///< election + push-sum
  sim::Counters spread;  ///< data-spread
  std::uint32_t rounds = 0;
};

/// Shared by the DRR pipelines and the group-merge baseline: Gossip-max on
/// (weight, id) keys elects the root z of largest weight[r]; push-sum runs
/// on (sum[r], weight[r]) -- in `sum_mode` on (sum[r], [r believes it is
/// z]), so the common limit is the global sum; z data-spreads its
/// estimate.  root_value[r] receives the decoded spread (0 where nothing
/// arrived).  Each stage resumes the clock where the previous one stopped.
[[nodiscard]] RootAverageResult average_over_roots(
    const Forest& forest, std::span<const double> sum, std::span<const double> weight,
    bool sum_mode, std::vector<double>& root_value, const RngFactory& rngs,
    const sim::Scenario& scenario, const GossipMaxConfig& election,
    const PushSumConfig& push_sum, const GossipMaxConfig& spread);

}  // namespace drrg
