#pragma once
// Phase I: Distributed Random Ranking (Algorithm 1).
//
// Every node draws a rank uniformly from [0,1) and probes up to
// log2(n) - 1 uniformly random nodes, one per round, until it finds one
// with a higher rank; it then connects to that node (with an acknowledged
// connection message).  Nodes that never find a higher-ranked node -- or
// whose connection attempts exhaust their retry budget under message loss
// -- become roots.  The result is a forest of disjoint rank-increasing
// trees: Theorem 2 bounds the number of trees by O(n / log n) and
// Theorem 3 every tree's size by O(log n), both whp.
//
// Loss handling follows the §2 model: a lost probe wastes that attempt
// (the sampled node told us nothing), and connection messages are retried
// a constant number of times -- the paper notes O(1 / log(1/delta))
// repeated calls suffice for delta < 1/8.

#include <cstdint>
#include <vector>

#include "drr/drr_rules.hpp"
#include "forest/forest.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg {

struct DrrResult {
  Forest forest;
  std::vector<double> ranks;    ///< rank drawn by each node (members only)
  sim::Counters counters;       ///< Phase I message/round accounting
  std::uint64_t total_probes = 0;  ///< probes actually issued (Theorem 4: O(n log log n))
  std::uint32_t rounds = 0;
};

/// Runs Algorithm 1 on the complete graph (random phone call model).
/// Deterministic in (n, rngs root seed, scenario, config).
[[nodiscard]] DrrResult run_drr(std::uint32_t n, const RngFactory& rngs,
                                const sim::Scenario& scenario = {}, DrrConfig config = {});

}  // namespace drrg
