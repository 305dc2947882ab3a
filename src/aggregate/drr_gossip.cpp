#include "aggregate/drr_gossip.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/scratch.hpp"

namespace drrg {

namespace {

// Pooled payload-staging slots (support/scratch.hpp); tags 10+ keep these
// disjoint from the sparse pipeline's slots.  Contents are fully rewritten
// by assign() before every use.
enum ScratchTag : int {
  kScratchAddrPayload = 10,
  kScratchValuePayload,
  kScratchWork,
  kScratchRootValue,
  kScratchDerivedValues,
};

}  // namespace

namespace detail {

double phase3_scale(std::uint32_t n, const sim::Scenario& scenario,
                    double diameter_multiplier) {
  const double latency_scale = 1.0 + scenario.faults.latency.mean();
  if (diameter_multiplier <= 0.0 || scenario.topology.is_complete()) return latency_scale;
  const double diameter = scenario.topology.diameter();
  const double budget = static_cast<double>(ceil_log2(n));
  return latency_scale * std::max(1.0, diameter_multiplier * diameter / budget);
}

ConvergecastResult run_phase2(const Forest& forest, std::span<const double> values,
                              ConvergecastOp op, const RngFactory& rngs,
                              const sim::Scenario& scenario,
                              const ConvergecastConfig& convergecast,
                              BroadcastConfig broadcast, AggregateOutcome& out) {
  out.forest.num_trees = forest.num_trees();
  out.forest.max_tree_size = forest.max_tree_size();
  out.forest.max_tree_height = forest.max_tree_height();
  out.forest.largest_tree_root = forest.largest_tree_root();
  out.participating.assign(forest.size(), false);
  for (NodeId v = 0; v < forest.size(); ++v) out.participating[v] = forest.is_member(v);

  auto resume = [&scenario, &out] {
    return scenario.at_round(scenario.start_round + out.rounds_total);
  };
  ConvergecastResult cc = run_convergecast(forest, values, op, rngs, resume(), convergecast);
  out.metrics.convergecast = cc.counters;
  out.rounds_total += cc.rounds;
  // Protocol-level forwarding reads the root address from the forest: the
  // acknowledged broadcast hands member v exactly forest.root_of(v), so
  // the forest stands in for v's copy.
  std::vector<double>& addr = support::scratch_buffer<double, kScratchAddrPayload>();
  addr.assign(forest.size(), 0.0);
  for (NodeId r : forest.roots()) addr[r] = static_cast<double>(r);
  broadcast.stream_tag = derive_seed(broadcast.stream_tag, 1);
  const BroadcastResult bc = run_broadcast(forest, addr, rngs, resume(), broadcast);
  out.metrics.root_broadcast = bc.counters;
  out.rounds_total += bc.rounds;
  return cc;
}

bool broadcast_value(const Forest& forest, std::span<const double> root_value,
                     const RngFactory& rngs, const sim::Scenario& scenario,
                     BroadcastConfig broadcast, AggregateOutcome& out) {
  broadcast.stream_tag = derive_seed(broadcast.stream_tag, 2);
  std::vector<double>& payload = support::scratch_buffer<double, kScratchValuePayload>();
  payload.assign(root_value.begin(), root_value.end());
  BroadcastResult bc =
      run_broadcast(forest, payload, rngs,
                    scenario.at_round(scenario.start_round + out.rounds_total), broadcast);
  out.metrics.value_broadcast = bc.counters;
  out.rounds_total += bc.rounds;
  out.per_node = std::move(bc.received);
  return bc.complete;
}

}  // namespace detail

namespace {

/// `cfg` (a Gossip-max or push-sum config) salted with `tag` and adapted
/// to the substrate: the diameter-scaled budget and, unless the
/// adaptation is off, the member relay.
template <class Config>
Config phase3_config(Config cfg, std::uint64_t tag, std::uint32_t n,
                     const sim::Scenario& scenario, const DrrGossipConfig& config) {
  cfg.stream_tag = derive_seed(cfg.stream_tag, tag);
  cfg.round_budget_scale *=
      detail::phase3_scale(n, scenario, config.phase3_diameter_multiplier);
  cfg.member_relay &= config.phase3_diameter_multiplier > 0.0;
  return cfg;
}

using Phase12 = detail::Phase12<DrrResult>;

/// Final value broadcast + consensus among all roots, then the survivor
/// mask: Phase I membership captures who was alive at the start, but
/// under churn a member crashed at round r must not be reported as
/// participating in the final result.
AggregateOutcome finish(Phase12& p, std::span<const double> root_value,
                        const RngFactory& rngs, const sim::Scenario& scenario,
                        const DrrGossipConfig& config) {
  const Forest& forest = p.drr.forest;
  AggregateOutcome& out = p.out;
  // Roots agree iff all root values coincide (within rounding).
  out.consensus = true;
  const double ref = root_value[forest.roots().front()];
  for (NodeId r : forest.roots()) {
    const double scale = std::max({std::fabs(ref), std::fabs(root_value[r]), 1.0});
    if (std::fabs(root_value[r] - ref) > detail::kAgreeTolerance * scale) {
      out.consensus = false;
      break;
    }
  }
  out.value = root_value[out.forest.largest_tree_root];
  if (config.broadcast_result &&
      !detail::broadcast_value(forest, root_value, rngs, scenario, config.broadcast, out))
    out.consensus = false;

  if (scenario.faults.has_churn() || scenario.faults.has_blocks() ||
      scenario.faults.has_joins()) {
    const auto survivors = sim::survivor_mask(forest.size(), rngs, scenario.faults,
                                              scenario.start_round + out.rounds_total);
    for (NodeId v = 0; v < forest.size(); ++v)
      out.participating[v] = out.participating[v] && survivors[v];
  }
  return std::move(out);
}

/// Shared Max skeleton (Algorithm 7); `negate` turns it into Min.
AggregateOutcome max_pipeline(std::uint32_t n, std::span<const double> values,
                              std::uint64_t seed, const sim::Scenario& scenario,
                              const DrrGossipConfig& config, bool negate) {
  if (values.size() < n) throw std::invalid_argument("drr_gossip: values too short");
  RngFactory rngs{seed};
  std::vector<double>& work = support::scratch_buffer<double, kScratchWork>();
  work.assign(values.begin(), values.begin() + n);
  if (negate)
    for (double& v : work) v = -v;

  Phase12 p{run_drr(n, rngs, scenario, config.drr), work, ConvergecastOp::kMax, rngs,
            scenario, config.convergecast, config.broadcast};
  // Phase III: gossip the per-tree maxima among the roots.
  std::vector<double>& root_value = support::scratch_buffer<double, kScratchRootValue>();
  const GossipMaxResult gm = gossip_max_of_values(
      p.drr.forest, p.cc.aggregate, root_value, rngs, p.resume(scenario),
      phase3_config(config.gossip_max, 3, n, scenario, config));
  p.out.metrics.gossip = gm.counters;
  p.out.rounds_total += gm.rounds;
  if (negate)
    for (NodeId r : p.drr.forest.roots()) root_value[r] = -root_value[r];
  return finish(p, root_value, rngs, scenario, config);
}

/// Shared Ave/Sum/Count skeleton (Algorithm 8).  In `sum_mode` the push-sum
/// denominator is the indicator of the elected root z, so the limit is the
/// global sum of the numerators instead of the average of the values.
AggregateOutcome ave_pipeline(std::uint32_t n, std::span<const double> values,
                              std::uint64_t seed, const sim::Scenario& scenario,
                              const DrrGossipConfig& config, bool sum_mode) {
  if (values.size() < n) throw std::invalid_argument("drr_gossip: values too short");
  RngFactory rngs{seed};

  Phase12 p{run_drr(n, rngs, scenario, config.drr), values, ConvergecastOp::kSum, rngs,
            scenario, config.convergecast, config.broadcast};
  std::vector<double>& root_value = support::scratch_buffer<double, kScratchRootValue>();
  const RootAverageResult avg = average_over_roots(
      p.drr.forest, p.cc.aggregate, p.cc.weight, sum_mode, root_value, rngs,
      p.resume(scenario), phase3_config(config.gossip_max, 4, n, scenario, config),
      phase3_config(config.push_sum, 5, n, scenario, config),
      phase3_config(config.gossip_max, 6, n, scenario, config));
  p.out.metrics.gossip = avg.gossip;
  p.out.metrics.spread = avg.spread;
  p.out.rounds_total += avg.rounds;
  return finish(p, root_value, rngs, scenario, config);
}

}  // namespace

AggregateOutcome drr_gossip_max(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                const DrrGossipConfig& config) {
  return max_pipeline(n, values, seed, scenario, config, /*negate=*/false);
}

AggregateOutcome drr_gossip_min(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                const DrrGossipConfig& config) {
  return max_pipeline(n, values, seed, scenario, config, /*negate=*/true);
}

AggregateOutcome drr_gossip_ave(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                const DrrGossipConfig& config) {
  return ave_pipeline(n, values, seed, scenario, config, /*sum_mode=*/false);
}

AggregateOutcome drr_gossip_sum(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                const DrrGossipConfig& config) {
  return ave_pipeline(n, values, seed, scenario, config, /*sum_mode=*/true);
}

AggregateOutcome drr_gossip_count(std::uint32_t n, std::uint64_t seed,
                                  const sim::Scenario& scenario, const DrrGossipConfig& config) {
  std::vector<double>& ones = support::scratch_buffer<double, kScratchDerivedValues>();
  ones.assign(n, 1.0);
  return ave_pipeline(n, ones, seed, scenario, config, /*sum_mode=*/true);
}

AggregateOutcome drr_gossip_rank(std::uint32_t n, std::span<const double> values,
                                 double x, std::uint64_t seed, const sim::Scenario& scenario,
                                 const DrrGossipConfig& config) {
  if (values.size() < n) throw std::invalid_argument("drr_gossip_rank: values too short");
  std::vector<double>& indicator =
      support::scratch_buffer<double, kScratchDerivedValues>();
  indicator.assign(n, 0.0);
  for (std::uint32_t v = 0; v < n; ++v) indicator[v] = values[v] < x ? 1.0 : 0.0;
  return ave_pipeline(n, indicator, seed, scenario, config, /*sum_mode=*/true);
}

}  // namespace drrg
