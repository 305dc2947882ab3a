#include "aggregate/extrema.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "aggregate/drr_gossip.hpp"
#include "drr/drr.hpp"
#include "rootgossip/gossip_max_protocol.hpp"
#include "support/mathutil.hpp"
#include "trees/convergecast_protocol.hpp"

namespace drrg {

namespace {

using MinVec = std::vector<double>;

void absorb_min(MinVec& into, const MinVec& from) {
  for (std::size_t j = 0; j < into.size(); ++j) into[j] = std::min(into[j], from[j]);
}

// Draws the exponentials, runs the three phases, estimates.

ExtremaOutcome run_extrema(std::uint32_t n, std::span<const double> rates,
                           std::uint64_t seed, const sim::Scenario& scenario,
                           ExtremaConfig config) {
  RngFactory rngs{seed};
  const DrrResult drr = run_drr(n, rngs, scenario, {});
  const Forest& forest = drr.forest;

  const std::uint32_t k =
      config.k != 0 ? config.k : 4 * std::max<std::uint32_t>(2, ceil_log2(n));
  const std::uint32_t vec_bits = k * 64 + address_bits(n);

  // Per-node exponential draws: w ~ Exp(rate) = -ln(U)/rate.
  auto draw = [&](NodeId v) {
    if (!(rates[v] > 0.0))
      throw std::invalid_argument("extrema propagation requires positive values");
    Rng rng = rngs.node_stream(v, 0xe87e);
    MinVec w(k);
    for (double& wj : w) wj = -std::log(std::max(rng.next_unit(), 1e-300)) / rates[v];
    return w;
  };

  ExtremaOutcome out;
  out.k = k;
  out.predicted_rse = k > 2 ? 1.0 / std::sqrt(static_cast<double>(k - 2)) : 1.0;
  out.counters = drr.counters;
  out.rounds_total = drr.rounds;

  // Phase II: componentwise-min convergecast.  Each phase resumes the
  // scenario's global clock where the previous one stopped, so one churn
  // schedule spans all three phases.
  detail::ConvergecastRun<MinVec> cc = detail::run_convergecast_of<MinVec>(
      forest, draw, absorb_min, vec_bits, 8 * (forest.max_tree_height() + 2) + 64, rngs,
      scenario.at_round(scenario.start_round + out.rounds_total), 0xecc);
  out.counters += cc.counters;
  out.rounds_total += cc.rounds;

  // Phase III: Gossip-max among the roots with componentwise-min absorption,
  // on the DRR pipelines' substrate-scaled budget (default multiplier).
  config.gossip.round_budget_scale *=
      detail::phase3_scale(n, scenario, DrrGossipConfig{}.phase3_diameter_multiplier);
  std::vector<MinVec> folded(n);
  for (NodeId v = 0; v < n; ++v) folded[v] = std::move(cc.node[v].acc);
  const GossipMaxRun<MinVec> gm = detail::run_gossip_max_of(
      forest, std::move(folded), absorb_min, vec_bits, rngs,
      scenario.at_round(scenario.start_round + out.rounds_total), config.gossip, 0xe90);
  out.counters += gm.counters;
  out.rounds_total += gm.rounds;
  const std::vector<MinVec>& state = gm.key;

  // Estimate at every root; consensus iff all share the global min vector.
  const NodeId z = forest.largest_tree_root();
  double sum_min = 0.0;
  for (double m : state[z]) sum_min += m;
  out.estimate = sum_min > 0.0 ? static_cast<double>(k - 1) / sum_min : 0.0;
  out.consensus = true;
  for (NodeId r : forest.roots())
    if (state[r] != state[z]) out.consensus = false;
  return out;
}

}  // namespace

ExtremaOutcome drr_gossip_count_extrema(std::uint32_t n, std::uint64_t seed,
                                        const sim::Scenario& scenario, ExtremaConfig config) {
  std::vector<double> ones(n, 1.0);
  return run_extrema(n, ones, seed, scenario, config);
}

ExtremaOutcome drr_gossip_sum_extrema(std::uint32_t n, std::span<const double> values,
                                      std::uint64_t seed, const sim::Scenario& scenario,
                                      ExtremaConfig config) {
  if (values.size() < n) throw std::invalid_argument("extrema sum: values too short");
  return run_extrema(n, values, seed, scenario, config);
}

}  // namespace drrg
