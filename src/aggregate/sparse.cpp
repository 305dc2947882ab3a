#include "aggregate/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "aggregate/drr_gossip.hpp"
#include "aggregate/routed_carrier.hpp"
#include "aggregate/routing.hpp"
#include "rootgossip/gossip_max_protocol.hpp"
#include "rootgossip/ordered_key.hpp"
#include "rootgossip/push_sum_protocol.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"
#include "support/scratch.hpp"

namespace drrg {

Graph overlay_graph(const ChordOverlay& chord) {
  // Flat collect + sort + unique: the same sorted duplicate-free edge list
  // a std::set yields in O(n log n) node allocations, in O(1) allocations.
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(chord.size()) * (chord.ring_bits() + 1));
  auto add = [&edges](NodeId a, NodeId b) {
    if (a == b) return;
    edges.emplace_back(std::min(a, b), std::max(a, b));
  };
  for (NodeId v = 0; v < chord.size(); ++v) {
    add(v, chord.successor(v));
    for (std::uint32_t k = 0; k < chord.ring_bits(); ++k) add(v, chord.finger(v, k));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return Graph::from_edges(chord.size(), edges);
}

namespace {

// Pooled root-value staging (support/scratch.hpp), fully rewritten by
// assign() before every use.
enum ScratchTag : int { kScratchRootValue = 1 };

/// Runs `steps` initiation rounds with the protocol live, then drains
/// until the network is quiescent (every in-flight envelope has landed or
/// died), capped by the longest possible residual path.
template <class Msg, class P>
void run_then_drain(sim::Network<Msg>& net, P& proto, std::uint32_t steps,
                    std::uint32_t drain_cap) {
  for (std::uint32_t r = 0; r < steps; ++r) net.step(proto);
  for (std::uint32_t r = 0; r < drain_cap && !net.quiescent(); ++r) net.step(proto);
}

/// Residual-path bound: substrate route + tree climb + slack.
[[nodiscard]] std::uint32_t drain_cap(const SparseRouter& router, const Forest& forest,
                                      std::uint32_t slack) {
  return router.max_route_hops() + forest.max_tree_height() + slack + 2;
}

/// The fused elect-and-spread key: a (size, id) key with the estimate
/// riding it through every merge.
struct KeyAux {
  std::uint64_t key = kKeyBottom;
  std::uint64_t aux = 0;
};

/// Routed Gossip-max: the gossip procedure, a drain, the sampling
/// procedure, a drain; each drain stops at quiescence.
template <class Key, class Merge>
GossipMaxRun<Key> run_sparse_gossip_max(const SparseRouter& router, const Forest& forest,
                                        std::vector<Key> init, Merge merge,
                                        std::uint32_t key_bits, const RngFactory& rngs,
                                        const sim::Scenario& scenario,
                                        const GossipMaxConfig& cfg) {
  using Proto = detail::GossipMaxProtocol<Key, Merge, detail::RoutedCarrier>;
  using Procedure = typename Proto::Procedure;
  const std::uint32_t n = forest.size();
  sim::Network<typename Proto::Msg> net{n, rngs, scenario,
                                        derive_seed(0x59a2, cfg.stream_tag)};
  Proto proto{detail::RoutedCarrier{forest, router, scenario.faults.crash_free()},
              std::move(init), std::move(merge), key_bits};
  // Event-time latency stretches each routed G~ generation by the expected
  // call delay; scale the budgets (and the drain horizon, by the worst
  // case) to keep the completed-generation count.  Factor 1 at latency 0.
  const double lat = 1.0 + scenario.faults.latency.mean();
  const std::uint32_t G = log_rounds(cfg.gossip_multiplier, n, cfg.round_budget_scale, lat);
  const std::uint32_t S = log_rounds(cfg.sampling_multiplier, n, cfg.round_budget_scale, lat);
  const std::uint32_t cap = (1 + scenario.faults.latency.bound()) *
                            drain_cap(router, forest, cfg.drain_rounds);

  // Procedures are gated off before each drain: with roots still
  // initiating, the quiescence exit would be unreachable and the drain
  // rounds would silently double the configured O(log n) G~ budget.
  proto.procedure = Procedure::kGossip;
  run_then_drain(net, proto, G, 0);
  proto.procedure = Procedure::kIdle;
  run_then_drain(net, proto, 0, cap);
  proto.procedure = Procedure::kSampling;
  run_then_drain(net, proto, S, 0);
  proto.procedure = Procedure::kIdle;
  // Replies may chain one more routed leg; drain with double headroom.
  run_then_drain(net, proto, 0, 2 * cap);

  GossipMaxRun<Key> out;
  out.key = std::move(proto.key);
  out.counters = net.counters();
  out.rounds = net.counters().rounds;
  return out;
}

PushSumResult run_sparse_push_sum(const SparseRouter& router, const Forest& forest,
                                  std::span<const double> num0, std::span<const double> den0,
                                  const RngFactory& rngs, const sim::Scenario& scenario,
                                  const PushSumConfig& cfg) {
  using Proto = detail::PushSumProtocol<false, detail::RoutedCarrier>;
  const std::uint32_t n = forest.size();
  const bool armed = cfg.hop_carry_ack;
  sim::Network<typename Proto::Msg> net{n, rngs, scenario,
                                        derive_seed(0x59b2, cfg.stream_tag)};
  Proto proto{detail::RoutedCarrier{forest, router, scenario.faults.crash_free(), armed,
                                    scenario.faults.latency.bound()},
              num0, den0, detail::Custody<typename Proto::Msg>{armed ? n : 0}};
  const detail::RoutedCarrier& carrier = proto.carrier;
  // Latency compensation: a share initiated now only re-mixes after its
  // ~typical_route_hops() round trip, so the O(log n) initiation window is
  // scaled by (1 + typical/log2 n) to preserve the number of completed
  // mixing generations.  On Chord (typical = Theta(log n)) this is a
  // constant factor; message complexity stays O(n log n).
  // Armed lossy runs retransmit each lost hop after reclaim_after rounds,
  // stretching a route by an expected (1 + loss/(1-loss) * reclaim_after)
  // factor; scale the initiation window to keep the completed mixing
  // generations.  Exactly 1 unarmed or lossless, so pins are untouched.
  const double loss = scenario.faults.loss_prob;
  const double arq_scale =
      (armed && loss > 0.0 && loss < 1.0)
          ? 1.0 + loss / (1.0 - loss) * static_cast<double>(carrier.reclaim_after())
          : 1.0;
  const double latency_scale =
      (1.0 + static_cast<double>(router.typical_route_hops()) /
                 static_cast<double>(ceil_log2(n))) *
      (1.0 + scenario.faults.latency.mean());
  const std::uint32_t T = log_rounds(cfg.rounds_multiplier, n, cfg.round_budget_scale,
                                     latency_scale, arq_scale) +
                          cfg.extra_rounds;

  proto.initiating = true;
  for (std::uint32_t r = 0; r < T; ++r) net.step(proto);
  proto.initiating = false;
  const std::uint32_t cap =
      (1 + scenario.faults.latency.bound()) * drain_cap(router, forest, T);
  if (!armed) {
    run_then_drain(net, proto, 0, cap);
  } else {
    // Armed drain: quiescence alone is not enough -- parked custody
    // re-homes after its ack window, re-launching traffic.  Allow a few
    // reclaim generations, then fold whatever is still boxed in back into
    // its holder (conservation over reachability).
    const std::uint32_t armed_cap = 4 * (cap + carrier.reclaim_after());
    for (std::uint32_t r = 0;
         r < armed_cap && !(net.quiescent() && proto.custody.total == 0); ++r) {
      net.step(proto);
    }
    carrier.fold_back(proto.custody,
                      [&](NodeId v, const Proto::Msg& m) { proto.absorb(v, m); });
  }

  PushSumResult result;
  proto.finish(result);
  result.counters = net.counters();
  result.rounds = net.counters().rounds;
  return result;
}

// ---------------------------------------------------------------------------
// Shared pipeline scaffolding.

/// The tree broadcasts' config: a node reaches all of its children (graph
/// neighbors) in one round (§4 Assumption 1).
BroadcastConfig tree_broadcast(const SparseGossipConfig& config) {
  BroadcastConfig cfg = config.broadcast;
  cfg.simultaneous_children = true;
  return cfg;
}

using SparsePhase12 = detail::Phase12<LocalDrrResult>;

/// Phases I and II: Local-DRR, then convergecast and the root-address
/// broadcast along the tree edges.
SparsePhase12 run_sparse_phase12(const Graph& links, std::span<const double> values,
                                 ConvergecastOp op, const RngFactory& rngs,
                                 const sim::Scenario& scenario,
                                 const SparseGossipConfig& config) {
  return {run_local_drr(links, rngs, scenario, config.local_drr), values, op, rngs,
          scenario, config.convergecast, tree_broadcast(config)};
}

AggregateOutcome sparse_finish(SparsePhase12& p, std::span<const double> root_value,
                               const RngFactory& rngs, const sim::Scenario& scenario,
                               const SparseGossipConfig& config) {
  const Forest& forest = p.drr.forest;
  const std::uint32_t n = forest.size();
  AggregateOutcome& out = p.out;
  const bool bc_incomplete =
      config.broadcast_result &&
      !detail::broadcast_value(forest, root_value, rngs, scenario, tree_broadcast(config),
                               out);

  // Consensus is judged among the roots that survive the *whole* run
  // (value-broadcast rounds included, so the reported value never
  // originates from a root the participating mask excludes): a root
  // crashed mid-run holds a frozen key that no live participant can
  // observe.  Fault-free and crash-only runs see every root, the
  // historical criterion.  The same mask prunes the participating set
  // (Phase I membership captures who was alive at the *start*).
  std::vector<bool> alive;
  if (scenario.faults.has_churn() || scenario.faults.has_blocks() ||
      scenario.faults.has_joins()) {
    alive = sim::survivor_mask(n, rngs, scenario.faults,
                               scenario.start_round + out.rounds_total);
    for (std::uint32_t v = 0; v < n; ++v)
      out.participating[v] = out.participating[v] && alive[v];
  }

  NodeId agree_root = kNoParent;  // largest surviving tree, ties to small id
  for (NodeId r : forest.roots()) {
    if (!alive.empty() && !alive[r]) continue;
    if (agree_root == kNoParent || forest.tree_size(r) > forest.tree_size(agree_root))
      agree_root = r;
  }
  if (agree_root == kNoParent) {  // every root died: no consensus to report
    out.consensus = false;
    return std::move(out);
  }
  out.consensus = true;
  const double ref = root_value[agree_root];
  for (NodeId r : forest.roots()) {
    if (!alive.empty() && !alive[r]) continue;
    const double scale = std::max({std::fabs(ref), std::fabs(root_value[r]), 1.0});
    if (std::fabs(root_value[r] - ref) > detail::kAgreeTolerance * scale) {
      out.consensus = false;
      break;
    }
  }
  out.value = ref;
  // Under mid-run deaths (churn or block outages) a tree whose root died
  // is legitimately cut off; the roots' agreement above is the consensus
  // criterion then.  Otherwise incompleteness means retry exhaustion.
  if (bc_incomplete && !scenario.faults.has_churn() && !scenario.faults.has_blocks())
    out.consensus = false;
  return std::move(out);
}

// ---------------------------------------------------------------------------
// The two pipelines, generic in the (links graph, router) pair.

AggregateOutcome sparse_max_pipeline(std::uint32_t n, const Graph& links,
                                     const SparseRouter& router,
                                     std::span<const double> values, std::uint64_t seed,
                                     const sim::Scenario& scenario,
                                     const SparseGossipConfig& config) {
  if (values.size() < n) throw std::invalid_argument("sparse_drr_gossip: values too short");
  RngFactory rngs{seed};
  SparsePhase12 p =
      run_sparse_phase12(links, values, ConvergecastOp::kMax, rngs, scenario, config);
  const Forest& forest = p.drr.forest;
  if (forest.roots().empty()) return std::move(p.out);

  std::vector<std::uint64_t> keys(n, kKeyBottom);
  for (NodeId r : forest.roots()) keys[r] = encode_ordered(p.cc.aggregate[r]);
  GossipMaxConfig gm_cfg = config.gossip_max;
  gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 3);
  auto max_of = [](std::uint64_t& into, std::uint64_t from) { into = std::max(into, from); };
  const GossipMaxResult gm =
      run_sparse_gossip_max(router, forest, std::move(keys), max_of, 64 + 2 * address_bits(n),
                            rngs, p.resume(scenario), gm_cfg);
  p.out.metrics.gossip = gm.counters;
  p.out.rounds_total += gm.rounds;

  std::vector<double>& root_value =
      support::scratch_buffer<double, kScratchRootValue>();
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots()) root_value[r] = decode_ordered(gm.key[r]);
  return sparse_finish(p, root_value, rngs, scenario, config);
}

AggregateOutcome sparse_ave_pipeline(std::uint32_t n, const Graph& links,
                                     const SparseRouter& router,
                                     std::span<const double> values, std::uint64_t seed,
                                     const sim::Scenario& scenario,
                                     const SparseGossipConfig& config) {
  if (values.size() < n) throw std::invalid_argument("sparse_drr_gossip: values too short");
  RngFactory rngs{seed};
  SparsePhase12 p =
      run_sparse_phase12(links, values, ConvergecastOp::kSum, rngs, scenario, config);
  const Forest& forest = p.drr.forest;
  if (forest.roots().empty()) return std::move(p.out);

  // Phase III(a): push-sum on (local sum, tree size); non-root entries
  // are ignored.
  PushSumConfig ps_cfg = config.push_sum;
  ps_cfg.stream_tag = derive_seed(ps_cfg.stream_tag, 5);
  const PushSumResult ps = run_sparse_push_sum(router, forest, p.cc.aggregate, p.cc.weight,
                                               rngs, p.resume(scenario), ps_cfg);
  p.out.metrics.gossip = ps.counters;
  p.out.rounds_total += ps.rounds;

  // Phase III(b): elect-and-spread.  Algorithm 8 first elects z (gossip-
  // max on (tree size, id)), then data-spreads z's estimate; that shape
  // deadlocks under churn when z crashes after its winning key circulated
  // -- no live root believes it is z and nothing spreads.  Fused here:
  // every root spreads (size-key, own estimate) and the estimate rides
  // the key through every max-merge, so all roots converge on the
  // estimate of the largest root that actually managed to spread -- z
  // itself whenever z survives, byte for byte the paper's outcome -- one
  // whole gossip phase cheaper, and immune to z's death.
  std::vector<KeyAux> spread_init(n);
  for (NodeId r : forest.roots()) {
    if (ps.den[r] > 0.0) {
      spread_init[r] = {encode_size_id(static_cast<std::uint32_t>(p.cc.weight[r]), r),
                        encode_ordered(ps.estimate[r])};
    }
  }
  GossipMaxConfig spread_cfg = config.gossip_max;
  spread_cfg.stream_tag = derive_seed(spread_cfg.stream_tag, 6);
  auto by_key = [](KeyAux& into, const KeyAux& from) {
    if (from.key > into.key) into = from;
  };
  const GossipMaxRun<KeyAux> spread =
      run_sparse_gossip_max(router, forest, std::move(spread_init), by_key,
                            2 * 64 + 2 * address_bits(n), rngs, p.resume(scenario), spread_cfg);
  p.out.metrics.spread = spread.counters;
  p.out.rounds_total += spread.rounds;

  std::vector<double>& root_value =
      support::scratch_buffer<double, kScratchRootValue>();
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots()) {
    const KeyAux& k = spread.key[r];
    root_value[r] = k.key == kKeyBottom ? 0.0 : decode_ordered(k.aux);
  }
  return sparse_finish(p, root_value, rngs, scenario, config);
}

void check_chord_args(const ChordOverlay& chord, const Graph& links,
                      const sim::Scenario& scenario) {
  if (links.size() != chord.size())
    throw std::invalid_argument("sparse_drr_gossip: graph/overlay mismatch");
  if (!scenario.topology.is_complete())
    throw std::invalid_argument(
        "sparse_drr_gossip: the Chord overlay is the substrate; scenario.topology "
        "must be complete");
}

[[nodiscard]] const Graph& substrate_graph(const sim::Scenario& scenario) {
  if (scenario.topology.is_complete())
    throw std::invalid_argument(
        "sparse_drr_gossip: explicit substrate required (use drr_gossip_* on the "
        "complete topology)");
  if (scenario.topology.graph() == nullptr)
    throw std::invalid_argument(
        "sparse_drr_gossip: the sparse pipeline walks real adjacency and needs "
        "the CSR backend (TopologyBackend::kCsr), not an implicit topology");
  return *scenario.topology.graph();
}

}  // namespace

AggregateOutcome sparse_drr_gossip_max(const ChordOverlay& chord, const Graph& links,
                                       std::span<const double> values, std::uint64_t seed,
                                       const sim::Scenario& scenario,
                                       const SparseGossipConfig& config) {
  check_chord_args(chord, links, scenario);
  return sparse_max_pipeline(chord.size(), links, SparseRouter::on_chord(chord), values,
                             seed, scenario, config);
}

AggregateOutcome sparse_drr_gossip_ave(const ChordOverlay& chord, const Graph& links,
                                       std::span<const double> values, std::uint64_t seed,
                                       const sim::Scenario& scenario,
                                       const SparseGossipConfig& config) {
  check_chord_args(chord, links, scenario);
  return sparse_ave_pipeline(chord.size(), links, SparseRouter::on_chord(chord), values,
                             seed, scenario, config);
}

AggregateOutcome sparse_drr_gossip_max(std::span<const double> values, std::uint64_t seed,
                                       const sim::Scenario& scenario,
                                       const SparseGossipConfig& config) {
  const Graph& g = substrate_graph(scenario);
  return sparse_max_pipeline(g.size(), g, SparseRouter::on_substrate(scenario.topology),
                             values, seed, scenario, config);
}

AggregateOutcome sparse_drr_gossip_ave(std::span<const double> values, std::uint64_t seed,
                                       const sim::Scenario& scenario,
                                       const SparseGossipConfig& config) {
  const Graph& g = substrate_graph(scenario);
  return sparse_ave_pipeline(g.size(), g, SparseRouter::on_substrate(scenario.topology),
                             values, seed, scenario, config);
}

}  // namespace drrg
