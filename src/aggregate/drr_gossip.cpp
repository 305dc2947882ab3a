#include "aggregate/drr_gossip.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "rootgossip/ordered_key.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/scratch.hpp"

namespace drrg {

namespace {

constexpr double kAgreeTolerance = 1e-9;  // relative, consensus checks

// Pooled payload-staging slots (support/scratch.hpp); tags 10+ keep these
// disjoint from the sparse pipeline's slots.  Contents are fully rewritten
// by assign() before every use.
enum ScratchTag : int {
  kScratchAddrPayload = 10,
  kScratchValuePayload,
  kScratchWork,
  kScratchKeys,
  kScratchRootValue,
  kScratchSizeKeys,
  kScratchNum0,
  kScratchDen0,
  kScratchSpreadInit,
  kScratchDerivedValues,
};

/// Phase III round-budget scale for the scenario's substrate: 1.0 on the
/// complete topology and on overlays whose diameter is within the O(log n)
/// schedule, diameter/log-proportional beyond that (the grid/torus fix).
/// Event-time latency stretches every mixing generation by the expected
/// call delay, so the budget is additionally scaled by 1 + E[delay] to
/// keep the number of *completed* generations -- a factor of exactly 1
/// under the zero model, leaving historical schedules untouched.
double phase3_scale(std::uint32_t n, const sim::Scenario& scenario,
                    const DrrGossipConfig& config) {
  const double latency_scale = 1.0 + scenario.faults.latency.mean();
  if (config.phase3_diameter_multiplier <= 0.0 || scenario.topology.is_complete())
    return latency_scale;
  const double diameter = scenario.topology.diameter();
  const double budget = static_cast<double>(ceil_log2(n));
  return latency_scale *
         std::max(1.0, config.phase3_diameter_multiplier * diameter / budget);
}

struct Phase12 {
  DrrResult drr;
  ConvergecastResult cc;
  BroadcastResult addr;
  std::uint32_t end_round = 0;  ///< global clock after Phase II
};

/// Phases I and II shared by all pipelines.  Each phase's Network starts
/// where the previous one stopped on the scenario's global clock, so one
/// churn schedule spans the whole pipeline.
Phase12 run_phase12(std::uint32_t n, std::span<const double> values,
                    ConvergecastOp op, const RngFactory& rngs,
                    const sim::Scenario& scenario, const DrrGossipConfig& config) {
  Phase12 p;
  std::uint32_t clock = scenario.start_round;
  p.drr = run_drr(n, rngs, scenario, config.drr);
  clock += p.drr.rounds;
  p.cc = run_convergecast(p.drr.forest, values, op, rngs, scenario.at_round(clock),
                          config.convergecast);
  clock += p.cc.rounds;
  // Root-address broadcast: after it, every tree member can forward Phase
  // III traffic to its root.  (Protocol-level forwarding reads the root
  // address from the forest: the acknowledged broadcast hands member v
  // exactly forest.root_of(v), so the forest stands in for v's copy.)
  std::vector<double>& addr_payload =
      support::scratch_buffer<double, kScratchAddrPayload>();
  addr_payload.assign(n, 0.0);
  for (NodeId r : p.drr.forest.roots()) addr_payload[r] = static_cast<double>(r);
  BroadcastConfig addr_cfg = config.broadcast;
  addr_cfg.stream_tag = derive_seed(addr_cfg.stream_tag, 1);
  p.addr = run_broadcast(p.drr.forest, addr_payload, rngs, scenario.at_round(clock),
                         addr_cfg);
  p.end_round = clock + p.addr.rounds;
  return p;
}

/// Restricts the participating mask to the schedule's final survivors:
/// Phase I membership captures who was alive at the start, but under
/// churn a member crashed at round r must not be reported as
/// participating in the final result.
void apply_final_survivors(std::uint32_t n, const RngFactory& rngs,
                           const sim::Scenario& scenario, AggregateOutcome& out) {
  if (!scenario.faults.has_churn() && !scenario.faults.has_blocks() &&
      !scenario.faults.has_joins())
    return;
  const auto survivors = sim::survivor_mask(n, rngs, scenario.faults,
                                            scenario.start_round + out.rounds_total);
  for (std::uint32_t v = 0; v < n; ++v)
    out.participating[v] = out.participating[v] && survivors[v];
}

void fill_forest_summary(const Forest& f, AggregateOutcome& out) {
  out.forest.num_trees = f.num_trees();
  out.forest.max_tree_size = f.max_tree_size();
  out.forest.max_tree_height = f.max_tree_height();
  out.forest.largest_tree_root = f.largest_tree_root();
  out.participating.assign(f.size(), false);
  for (NodeId v = 0; v < f.size(); ++v) out.participating[v] = f.is_member(v);
}

/// Final value broadcast + consensus bookkeeping shared by all pipelines.
void finish(const Forest& forest, std::span<const double> root_value,
            const RngFactory& rngs, const sim::Scenario& scenario,
            const DrrGossipConfig& config, AggregateOutcome& out) {
  // Roots agree iff all root values coincide (within rounding).
  out.consensus = true;
  const double ref = root_value[forest.roots().front()];
  for (NodeId r : forest.roots()) {
    const double scale = std::max({std::fabs(ref), std::fabs(root_value[r]), 1.0});
    if (std::fabs(root_value[r] - ref) > kAgreeTolerance * scale) {
      out.consensus = false;
      break;
    }
  }
  out.value = root_value[out.forest.largest_tree_root];

  if (config.broadcast_result) {
    BroadcastConfig value_cfg = config.broadcast;
    value_cfg.stream_tag = derive_seed(value_cfg.stream_tag, 2);
    std::vector<double>& payload =
        support::scratch_buffer<double, kScratchValuePayload>();
    payload.assign(root_value.begin(), root_value.end());
    const BroadcastResult bc = run_broadcast(
        forest, payload, rngs,
        scenario.at_round(scenario.start_round + out.rounds_total), value_cfg);
    out.metrics.value_broadcast = bc.counters;
    out.rounds_total += bc.rounds;
    out.per_node = bc.received;
    if (!bc.complete) out.consensus = false;
  }
}

/// Shared Max skeleton; `negate` turns it into Min.
AggregateOutcome max_pipeline(std::uint32_t n, std::span<const double> values,
                              std::uint64_t seed, const sim::Scenario& scenario,
                              const DrrGossipConfig& config, bool negate) {
  if (values.size() < n) throw std::invalid_argument("drr_gossip: values too short");
  RngFactory rngs{seed};
  std::vector<double>& work = support::scratch_buffer<double, kScratchWork>();
  work.assign(values.begin(), values.begin() + n);
  if (negate)
    for (double& v : work) v = -v;

  Phase12 p = run_phase12(n, work, ConvergecastOp::kMax, rngs, scenario, config);
  const Forest& forest = p.drr.forest;

  AggregateOutcome out;
  fill_forest_summary(forest, out);
  out.metrics.drr = p.drr.counters;
  out.metrics.convergecast = p.cc.counters;
  out.metrics.root_broadcast = p.addr.counters;
  out.rounds_total = p.drr.rounds + p.cc.rounds + p.addr.rounds;

  // Phase III: gossip the per-tree maxima among the roots.
  std::vector<std::uint64_t>& keys =
      support::scratch_buffer<std::uint64_t, kScratchKeys>();
  keys.assign(n, kKeyBottom);
  for (NodeId r : forest.roots()) keys[r] = encode_ordered(p.cc.aggregate[r]);
  GossipMaxConfig gm_cfg = config.gossip_max;
  gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 3);
  gm_cfg.round_budget_scale *= phase3_scale(n, scenario, config);
  gm_cfg.member_relay &= config.phase3_diameter_multiplier > 0.0;
  const GossipMaxResult gm =
      run_gossip_max(forest, keys, rngs, scenario.at_round(p.end_round), gm_cfg);
  out.metrics.gossip = gm.counters;
  out.rounds_total += gm.rounds;

  std::vector<double>& root_value =
      support::scratch_buffer<double, kScratchRootValue>();
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots()) {
    root_value[r] = decode_ordered(gm.key[r]);
    if (negate) root_value[r] = -root_value[r];
  }
  finish(forest, root_value, rngs, scenario, config, out);
  apply_final_survivors(n, rngs, scenario, out);
  return out;
}

/// Shared Ave/Sum/Count skeleton (Algorithm 8).  In `sum_mode` the push-sum
/// denominator is the indicator of the elected root z, so the limit is the
/// global sum of the numerators instead of the average of the values.
AggregateOutcome ave_pipeline(std::uint32_t n, std::span<const double> values,
                              std::uint64_t seed, const sim::Scenario& scenario,
                              const DrrGossipConfig& config, bool sum_mode) {
  if (values.size() < n) throw std::invalid_argument("drr_gossip: values too short");
  RngFactory rngs{seed};

  Phase12 p = run_phase12(n, values, ConvergecastOp::kSum, rngs, scenario, config);
  const Forest& forest = p.drr.forest;

  AggregateOutcome out;
  fill_forest_summary(forest, out);
  out.metrics.drr = p.drr.counters;
  out.metrics.convergecast = p.cc.counters;
  out.metrics.root_broadcast = p.addr.counters;
  out.rounds_total = p.drr.rounds + p.cc.rounds + p.addr.rounds;

  // Phase III(a): Gossip-max on (tree size, id) keys elects the root of
  // the largest tree; each root then *locally* knows whether it is z.
  std::vector<std::uint64_t>& size_keys =
      support::scratch_buffer<std::uint64_t, kScratchSizeKeys>();
  size_keys.assign(n, kKeyBottom);
  for (NodeId r : forest.roots()) {
    // Tree sizes here come from Convergecast-sum (covsum(*, 2)), exactly
    // as Algorithm 8 prescribes -- not from global forest knowledge.
    size_keys[r] = encode_size_id(static_cast<std::uint32_t>(p.cc.weight[r]), r);
  }
  const double budget_scale = phase3_scale(n, scenario, config);
  const bool topology_adapt = config.phase3_diameter_multiplier > 0.0;
  GossipMaxConfig gm_cfg = config.gossip_max;
  gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 4);
  gm_cfg.round_budget_scale *= budget_scale;
  gm_cfg.member_relay &= topology_adapt;
  const GossipMaxResult election =
      run_gossip_max(forest, size_keys, rngs, scenario.at_round(p.end_round), gm_cfg);

  sim::Counters gossip_counters = election.counters;
  std::uint32_t gossip_rounds = election.rounds;

  // Phase III(b): push-sum on (local sum, tree size) -- or, for Sum/Count,
  // (local sum, indicator of believing to be z).
  std::vector<double>& num0 = support::scratch_buffer<double, kScratchNum0>();
  std::vector<double>& den0 = support::scratch_buffer<double, kScratchDen0>();
  num0.assign(n, 0.0);
  den0.assign(n, 0.0);
  for (NodeId r : forest.roots()) {
    num0[r] = p.cc.aggregate[r];
    if (sum_mode) {
      den0[r] = (election.key[r] == size_keys[r]) ? 1.0 : 0.0;
    } else {
      den0[r] = p.cc.weight[r];
    }
  }
  PushSumConfig ps_cfg = config.push_sum;
  ps_cfg.stream_tag = derive_seed(ps_cfg.stream_tag, 5);
  ps_cfg.round_budget_scale *= budget_scale;
  ps_cfg.member_relay &= topology_adapt;
  const PushSumResult ps = run_root_push_sum(
      forest, num0, den0, rngs, scenario.at_round(p.end_round + election.rounds), ps_cfg);
  gossip_counters += ps.counters;
  gossip_rounds += ps.rounds;
  out.metrics.gossip = gossip_counters;
  out.rounds_total += gossip_rounds;

  // Phase III(c): data-spread from every root that believes it is z (whp
  // exactly one).  The spread key carries that root's estimate.
  std::vector<std::uint64_t>& spread_init =
      support::scratch_buffer<std::uint64_t, kScratchSpreadInit>();
  spread_init.assign(n, kKeyBottom);
  for (NodeId r : forest.roots()) {
    if (election.key[r] == size_keys[r] && ps.den[r] > 0.0)
      spread_init[r] = encode_ordered(ps.num[r] / ps.den[r]);
  }
  GossipMaxConfig spread_cfg = config.gossip_max;
  spread_cfg.stream_tag = derive_seed(spread_cfg.stream_tag, 6);
  spread_cfg.round_budget_scale *= budget_scale;
  spread_cfg.member_relay &= topology_adapt;
  const GossipMaxResult spread = run_gossip_max(
      forest, spread_init, rngs,
      scenario.at_round(p.end_round + gossip_rounds), spread_cfg);
  out.metrics.spread = spread.counters;
  out.rounds_total += spread.rounds;

  std::vector<double>& root_value =
      support::scratch_buffer<double, kScratchRootValue>();
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots())
    root_value[r] = spread.key[r] == kKeyBottom ? 0.0 : decode_ordered(spread.key[r]);
  finish(forest, root_value, rngs, scenario, config, out);
  apply_final_survivors(n, rngs, scenario, out);
  return out;
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
