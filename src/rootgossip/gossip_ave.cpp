#include "rootgossip/gossip_ave.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "rootgossip/ordered_key.hpp"
#include "rootgossip/push_sum_protocol.hpp"
#include "rootgossip/root_relay.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"
#include "support/scratch.hpp"

namespace drrg {

namespace {

// Pooled Phase III staging (support/scratch.hpp); tags 20+ keep these
// disjoint from the pipelines' slots.
enum ScratchTag : int { kScratchSizeKeys = 21, kScratchIndicator, kScratchSpreadInit };

/// Push rounds = rounds_multiplier * ceil(log2 n) * round_budget_scale +
/// extra_rounds.
std::uint32_t push_rounds_of(const PushSumConfig& config, std::uint32_t n) {
  return log_rounds(config.rounds_multiplier, n, config.round_budget_scale) +
         config.extra_rounds;
}

template <bool kTrack>
PushSumResult run_push_sum_impl(const Forest& forest, std::span<const double> num0,
                                std::span<const double> den0, const RngFactory& rngs,
                                const sim::Scenario& scenario,
                                const PushSumConfig& config) {
  using Proto = detail::PushSumProtocol<kTrack, detail::TreeCarrier>;
  const std::uint32_t n = forest.size();
  const std::uint32_t bound = scenario.faults.latency.bound();
  sim::Network<typename Proto::Msg> net{n, rngs, scenario,
                                        derive_seed(0xa4e, config.stream_tag)};
  const bool relay = config.member_relay && config.forward_via_trees &&
                     !scenario.topology.is_complete();
  Proto proto{detail::TreeCarrier{forest, relay, !config.forward_via_trees, bound}, num0,
              den0, detail::Custody<typename Proto::Msg>{n}};
  const std::uint32_t push_rounds = push_rounds_of(config, n);

  PushSumResult result;
  const NodeId z = forest.largest_tree_root();
  // The forwarding drain flushes the G~ relay chain (up to three hops);
  // under event-time latency every hop can additionally sit in flight for
  // the model's bound, so the drain stretches accordingly (exactly 3 for
  // the zero model -- the historical schedule).
  const std::uint32_t drain = config.forward_via_trees ? 3 * (1 + bound) : 0;
  for (std::uint32_t r = 0; r < push_rounds + drain; ++r) {
    proto.initiating = r < push_rounds;
    net.step(proto);
    if constexpr (kTrack) {
      result.potential_per_round.push_back(proto.potential());
      result.z_estimate_per_round.push_back(
          proto.den[z] > 0.0 ? proto.num[z] / proto.den[z] : 0.0);
    }
  }

  proto.finish(result);
  result.counters = net.counters();
  result.rounds = push_rounds + drain;
  return result;
}

/// Flat fault-free executor (production mode: forwarding on, no potential
/// tracking): the RootRelay driver with (num, den) payloads, absorbed at
/// the root in exact delivery order so every IEEE-754 accumulation is
/// bit-identical to the Network path.  With no faults possible every
/// first hop is acknowledged -- one 1-bit ack per root per push round --
/// and the lost-mass bookkeeping never fires.
PushSumResult run_push_sum_flat(const Forest& forest, std::span<const double> num0,
                                std::span<const double> den0, const RngFactory& rngs,
                                const sim::Scenario& scenario,
                                const PushSumConfig& config) {
  const std::uint32_t n = forest.size();
  const bool relay = config.member_relay && !scenario.topology.is_complete();
  detail::PushSumProtocol<false, detail::TreeCarrier> proto{
      detail::TreeCarrier{forest, relay}, num0, den0, {}};
  struct Mass {
    double num;
    double den;
  };
  detail::RootRelay<Mass> driver{forest, rngs, scenario,
                                 derive_seed(0xa4e, config.stream_tag), relay};
  double* num = proto.num.data();
  double* den = proto.den.data();
  const std::uint32_t push_rounds = push_rounds_of(config, n);
  const std::uint32_t drain = 3;  // forward_via_trees
  for (std::uint32_t r = 0; r < push_rounds + drain; ++r) {
    if (r < push_rounds) {
      driver.initiate([&](NodeId v) {
        num[v] *= 0.5;
        den[v] *= 0.5;
        return Mass{num[v], den[v]};
      });
    }
    driver.deliver([&](NodeId v, const Mass& m, auto&) {
      num[v] += m.num;
      den[v] += m.den;
    });
  }

  const std::uint64_t acks = static_cast<std::uint64_t>(forest.roots().size()) * push_rounds;
  PushSumResult result;
  proto.finish(result);
  result.counters.sent = driver.sent() + acks;
  result.counters.delivered = driver.delivered() + acks;
  result.counters.bits = driver.sent() * proto.pair_bits + acks;
  result.counters.rounds = push_rounds + drain;
  result.rounds = push_rounds + drain;
  return result;
}

}  // namespace

PushSumResult run_root_push_sum(const Forest& forest, std::span<const double> num0,
                                std::span<const double> den0, const RngFactory& rngs,
                                const sim::Scenario& scenario, PushSumConfig config) {
  const std::uint32_t n = forest.size();
  if (num0.size() < n || den0.size() < n)
    throw std::invalid_argument("run_root_push_sum: inputs too short");
  if (config.track_potential && config.forward_via_trees)
    throw std::invalid_argument(
        "run_root_push_sum: potential tracking requires analysis mode "
        "(forward_via_trees = false)");
  if (!config.track_potential && config.forward_via_trees && scenario.faults.fault_free())
    return run_push_sum_flat(forest, num0, den0, rngs, scenario, config);
  return config.track_potential
             ? run_push_sum_impl<true>(forest, num0, den0, rngs, scenario, config)
             : run_push_sum_impl<false>(forest, num0, den0, rngs, scenario, config);
}

RootAverageResult average_over_roots(const Forest& forest, std::span<const double> sum,
                                     std::span<const double> weight, bool sum_mode,
                                     std::vector<double>& root_value, const RngFactory& rngs,
                                     const sim::Scenario& scenario,
                                     const GossipMaxConfig& election_cfg,
                                     const PushSumConfig& push_sum_cfg,
                                     const GossipMaxConfig& spread_cfg) {
  const std::uint32_t n = forest.size();
  RootAverageResult out;
  auto resume = [&scenario, &out] {
    return scenario.at_round(scenario.start_round + out.rounds);
  };
  // Weights come from the roots' own aggregation (Algorithm 8's
  // covsum(*, 2)), not from global forest knowledge.
  std::vector<std::uint64_t>& size_keys =
      support::scratch_buffer<std::uint64_t, kScratchSizeKeys>();
  size_keys.assign(n, kKeyBottom);
  for (NodeId r : forest.roots())
    size_keys[r] = encode_size_id(static_cast<std::uint32_t>(weight[r]), r);
  const GossipMaxResult election =
      run_gossip_max(forest, size_keys, rngs, scenario, election_cfg);
  out.gossip = election.counters;
  out.rounds = election.rounds;
  auto is_z = [&](NodeId r) { return election.key[r] == size_keys[r]; };

  std::span<const double> den = weight;
  if (sum_mode) {
    std::vector<double>& indicator = support::scratch_buffer<double, kScratchIndicator>();
    indicator.assign(n, 0.0);
    for (NodeId r : forest.roots()) indicator[r] = is_z(r) ? 1.0 : 0.0;
    den = indicator;
  }
  const PushSumResult ps = run_root_push_sum(forest, sum, den, rngs, resume(), push_sum_cfg);
  out.gossip += ps.counters;
  out.rounds += ps.rounds;

  // Every root that believes it is z (whp exactly one) spreads its estimate.
  std::vector<std::uint64_t>& spread_init =
      support::scratch_buffer<std::uint64_t, kScratchSpreadInit>();
  spread_init.assign(n, kKeyBottom);
  for (NodeId r : forest.roots())
    if (is_z(r) && ps.den[r] > 0.0) spread_init[r] = encode_ordered(ps.num[r] / ps.den[r]);
  GossipMaxResult spread = run_gossip_max(forest, spread_init, rngs, resume(), spread_cfg);
  out.spread = spread.counters;
  out.rounds += spread.rounds;
  out.key = std::move(spread.key);
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots())
    root_value[r] = out.key[r] == kKeyBottom ? 0.0 : decode_ordered(out.key[r]);
  return out;
}

}  // namespace drrg
