#pragma once
// Phase II, upward half: Convergecast (Algorithms 2 and 3).
//
// Aggregation proceeds from the leaves of each ranking tree to its root.
// A node sends its (partial) aggregate to its parent once all of its
// children have reported; sends are acknowledged calls, retried under
// loss.  Convergecast-max/min carry a single value; Convergecast-sum
// carries the (value-sum, node-count) vector of Algorithm 3, so the root
// z ends up with covsum(z,1) = local sum and covsum(z,2) = tree size.
//
// The paper bounds Phase II time by the tree size; in the random phone
// call model a parent may *receive* from several children in one round,
// so the measured time is Theta(height + retries) -- strictly within the
// paper's bound, as a tree's height is below its size.

#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg {

enum class ConvergecastOp : std::uint8_t { kMax, kMin, kSum };

struct ConvergecastConfig {
  /// 0 = auto: generous bound from forest height plus loss slack.
  std::uint32_t max_rounds = 0;
  /// Disambiguates RNG streams when one pipeline runs the protocol twice.
  std::uint64_t stream_tag = 0;
};

struct ConvergecastResult {
  /// Aggregate value per node; meaningful at roots (kMax/kMin: the local
  /// extreme; kSum: the local value sum).
  std::vector<double> aggregate;
  /// kSum only: node count of the subtree (at roots: the tree size).
  std::vector<double> weight;
  sim::Counters counters;
  std::uint32_t rounds = 0;
  /// True iff every root heard from all of its children (always true at
  /// delta = 0; under loss the retry budget is the max_rounds horizon).
  bool complete = false;
};

/// Runs convergecast over `forest` with per-node inputs `values` (entries
/// of non-members are ignored).
[[nodiscard]] ConvergecastResult run_convergecast(const Forest& forest,
                                                  std::span<const double> values,
                                                  ConvergecastOp op,
                                                  const RngFactory& rngs,
                                                  const sim::Scenario& scenario = {},
                                                  ConvergecastConfig config = {});

}  // namespace drrg
