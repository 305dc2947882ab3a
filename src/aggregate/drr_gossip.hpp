#pragma once
// DRR-gossip (Algorithms 7 and 8): the paper's headline protocols.
//
// Given a value at each of n nodes (random phone call model, complete
// communication graph), computes a global aggregate at every node in
// O(log n) rounds and O(n log log n) messages:
//
//   Phase I    DRR             -> forest of O(n/log n) trees of size O(log n)
//   Phase II   Convergecast    -> local aggregate at each root
//              Broadcast       -> every node learns its root's address
//   Phase III  Gossip-max      -> global extreme at all roots (Alg 7), or
//              Gossip-max on tree sizes (elect z) + Gossip-ave + Data-spread
//                              -> global average at all roots (Alg 8)
//   Finally    Broadcast       -> every node learns the aggregate
//
// The Sum/Count/Rank variants use the push-sum machinery with the
// denominator concentrated on the elected root z, making the common
// push-sum limit sum(num)/1.
//
// Every function is deterministic in (n, seed, scenario, config) and returns
// full per-phase metrics for the complexity benches.

#include <cstdint>
#include <span>
#include <utility>

#include "aggregate/types.hpp"
#include "support/rng.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"

namespace drrg {

/// Maximum of values[v] over alive nodes (Algorithm 7).
[[nodiscard]] AggregateOutcome drr_gossip_max(std::uint32_t n,
                                              std::span<const double> values,
                                              std::uint64_t seed,
                                              const sim::Scenario& scenario = {},
                                              const DrrGossipConfig& config = {});

/// Minimum (Algorithm 7 on negated values).
[[nodiscard]] AggregateOutcome drr_gossip_min(std::uint32_t n,
                                              std::span<const double> values,
                                              std::uint64_t seed,
                                              const sim::Scenario& scenario = {},
                                              const DrrGossipConfig& config = {});

/// Average (Algorithm 8).
[[nodiscard]] AggregateOutcome drr_gossip_ave(std::uint32_t n,
                                              std::span<const double> values,
                                              std::uint64_t seed,
                                              const sim::Scenario& scenario = {},
                                              const DrrGossipConfig& config = {});

/// Sum over alive nodes (push-sum with the denominator at z).
[[nodiscard]] AggregateOutcome drr_gossip_sum(std::uint32_t n,
                                              std::span<const double> values,
                                              std::uint64_t seed,
                                              const sim::Scenario& scenario = {},
                                              const DrrGossipConfig& config = {});

/// Number of alive nodes (Sum of all-ones).
[[nodiscard]] AggregateOutcome drr_gossip_count(std::uint32_t n, std::uint64_t seed,
                                                const sim::Scenario& scenario = {},
                                                const DrrGossipConfig& config = {});

/// Rank of `x`: |{ alive v : values[v] < x }| (Sum of indicators).
[[nodiscard]] AggregateOutcome drr_gossip_rank(std::uint32_t n,
                                               std::span<const double> values, double x,
                                               std::uint64_t seed,
                                               const sim::Scenario& scenario = {},
                                               const DrrGossipConfig& config = {});

namespace detail {

// Pipeline stages shared with the sparse pipeline (aggregate/sparse.cpp)
// and extrema propagation.  Private to the library.

/// Relative tolerance of the roots' consensus checks.
inline constexpr double kAgreeTolerance = 1e-9;

/// Phase III round-budget scale for the scenario's substrate: 1.0 on the
/// complete topology and on overlays whose diameter is within the O(log n)
/// schedule, `diameter_multiplier` * diameter / log n beyond that (the
/// grid/torus fix); <= 0 disables it.  Event-time latency stretches every
/// mixing generation by the expected call delay, so the budget is also
/// scaled by 1 + E[delay] -- exactly 1 under the zero model.
[[nodiscard]] double phase3_scale(std::uint32_t n, const sim::Scenario& scenario,
                                  double diameter_multiplier);

/// Phase II over the Phase I forest: convergecast, then the root-address
/// broadcast (stream tag salt 1), resuming the clock after
/// `out.rounds_total`.  After it every tree member can forward Phase III
/// traffic to its root.  Fills `out`'s forest summary and participating
/// mask, adds the Phase II metrics and rounds, and returns the
/// convergecast (the roots' local aggregates).
ConvergecastResult run_phase2(const Forest& forest, std::span<const double> values,
                              ConvergecastOp op, const RngFactory& rngs,
                              const sim::Scenario& scenario,
                              const ConvergecastConfig& convergecast,
                              BroadcastConfig broadcast, AggregateOutcome& out);

/// Phases I and II of a pipeline: `drr` is its Phase I result (DRR or
/// Local-DRR: a forest plus counters and rounds), and Phase II runs over
/// it on construction.  Each phase's Network starts where the previous
/// one stopped on the scenario's global clock, so one churn schedule
/// spans the whole pipeline.
template <class PhaseOne>
struct Phase12 {
  PhaseOne drr;
  AggregateOutcome out;
  ConvergecastResult cc;

  Phase12(PhaseOne phase_one, std::span<const double> values, ConvergecastOp op,
          const RngFactory& rngs, const sim::Scenario& scenario,
          const ConvergecastConfig& convergecast, const BroadcastConfig& broadcast)
      : drr(std::move(phase_one)) {
    out.metrics.drr = drr.counters;
    out.rounds_total = drr.rounds;
    cc = run_phase2(drr.forest, values, op, rngs, scenario, convergecast, broadcast, out);
  }

  /// The scenario resumed after every phase run so far.
  [[nodiscard]] sim::Scenario resume(const sim::Scenario& scenario) const {
    return scenario.at_round(scenario.start_round + out.rounds_total);
  }
};

/// Final value broadcast (stream tag salt 2) of root_value[r] down every
/// tree, resuming the clock after `out.rounds_total`; fills
/// metrics.value_broadcast and per_node.  True iff every member was
/// informed.
bool broadcast_value(const Forest& forest, std::span<const double> root_value,
                     const RngFactory& rngs, const sim::Scenario& scenario,
                     BroadcastConfig broadcast, AggregateOutcome& out);

}  // namespace detail

}  // namespace drrg
