#include "replay.hpp"

#include <vector>

#include "aggregate/sparse.hpp"
#include "chord/chord.hpp"
#include "drr/drr.hpp"
#include "drr/local_drr.hpp"
#include "measure.hpp"
#include "rootgossip/gossip_ave.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/ordered_key.hpp"
#include "trees/broadcast.hpp"
#include "trees/convergecast.hpp"

namespace perfbench {

using namespace drrg;

namespace {

/// Times one phase call into `slot`.
template <class F>
auto timed(PhaseCall& slot, F&& call) {
  const auto start = Clock::now();
  auto result = call();
  slot.wall_s = seconds_since(start);
  slot.counters = result.counters;
  return result;
}

void diff(std::string& out, const char* what, const sim::Counters& replay,
          const sim::Counters& report) {
  if (replay.sent == report.sent && replay.delivered == report.delivered &&
      replay.lost == report.lost && replay.bits == report.bits &&
      replay.rounds == report.rounds)
    return;
  out += std::string{what} + ": replay sent/delivered/lost/bits/rounds " +
         std::to_string(replay.sent) + "/" + std::to_string(replay.delivered) + "/" +
         std::to_string(replay.lost) + "/" + std::to_string(replay.bits) + "/" +
         std::to_string(replay.rounds) + " != report " + std::to_string(report.sent) +
         "/" + std::to_string(report.delivered) + "/" + std::to_string(report.lost) +
         "/" + std::to_string(report.bits) + "/" + std::to_string(report.rounds) + "; ";
}

}  // namespace

DenseTrace replay_dense(const api::RunSpec& spec, std::span<const double> values) {
  const auto start = Clock::now();
  const bool ave = spec.aggregate == api::Aggregate::kAve;
  const std::uint32_t n = spec.n;
  const DrrGossipConfig config{};
  sim::Scenario scenario{sim::Topology::complete_of(n), spec.faults};
  scenario.intra_threads = spec.intra_threads;
  const RngFactory rngs{spec.seed};
  DenseTrace t;

  // Phase I and II (drr_gossip.cpp: run_phase12).
  std::uint32_t clock = scenario.start_round;
  const DrrResult drr =
      timed(t.phase[kDrr], [&] { return run_drr(n, rngs, scenario, config.drr); });
  const Forest& forest = drr.forest;
  t.probes = drr.total_probes;
  clock += drr.rounds;
  const ConvergecastResult cc = timed(t.phase[kConvergecast], [&] {
    return run_convergecast(forest, values.first(n),
                            ave ? ConvergecastOp::kSum : ConvergecastOp::kMax, rngs,
                            scenario.at_round(clock), config.convergecast);
  });
  clock += cc.rounds;
  std::vector<double> addr(n, 0.0);
  for (NodeId r : forest.roots()) addr[r] = static_cast<double>(r);
  BroadcastConfig addr_cfg = config.broadcast;
  addr_cfg.stream_tag = derive_seed(addr_cfg.stream_tag, 1);
  const BroadcastResult addr_bc = timed(t.phase[kAddrBroadcast], [&] {
    return run_broadcast(forest, addr, rngs, scenario.at_round(clock), addr_cfg);
  });
  const std::uint32_t end_round = clock + addr_bc.rounds;
  t.rounds = end_round - scenario.start_round;

  // Phase III.  On the complete graph the round budget scales only with
  // the expected call latency (drr_gossip.cpp: phase3_scale).
  const double budget_scale = 1.0 + scenario.faults.latency.mean();
  const bool relay = config.phase3_diameter_multiplier > 0.0;
  std::vector<double> root_value(n, 0.0);
  if (ave) {
    std::vector<std::uint64_t> size_keys(n, kKeyBottom);
    for (NodeId r : forest.roots())
      size_keys[r] = encode_size_id(static_cast<std::uint32_t>(cc.weight[r]), r);
    GossipMaxConfig gm_cfg = config.gossip_max;
    gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 4);
    gm_cfg.round_budget_scale *= budget_scale;
    gm_cfg.member_relay &= relay;
    const GossipMaxResult election = timed(t.phase[kElection], [&] {
      return run_gossip_max(forest, size_keys, rngs, scenario.at_round(end_round), gm_cfg);
    });

    std::vector<double> num0(n, 0.0);
    std::vector<double> den0(n, 0.0);
    for (NodeId r : forest.roots()) {
      num0[r] = cc.aggregate[r];
      den0[r] = cc.weight[r];
    }
    PushSumConfig ps_cfg = config.push_sum;
    ps_cfg.stream_tag = derive_seed(ps_cfg.stream_tag, 5);
    ps_cfg.round_budget_scale *= budget_scale;
    ps_cfg.member_relay &= relay;
    const PushSumResult ps = timed(t.phase[kPushSum], [&] {
      return run_root_push_sum(forest, num0, den0, rngs,
                               scenario.at_round(end_round + election.rounds), ps_cfg);
    });

    std::vector<std::uint64_t> spread_init(n, kKeyBottom);
    for (NodeId r : forest.roots())
      if (election.key[r] == size_keys[r] && ps.den[r] > 0.0)
        spread_init[r] = encode_ordered(ps.num[r] / ps.den[r]);
    GossipMaxConfig spread_cfg = config.gossip_max;
    spread_cfg.stream_tag = derive_seed(spread_cfg.stream_tag, 6);
    spread_cfg.round_budget_scale *= budget_scale;
    spread_cfg.member_relay &= relay;
    const GossipMaxResult spread = timed(t.phase[kSpread], [&] {
      return run_gossip_max(forest, spread_init, rngs,
                            scenario.at_round(end_round + election.rounds + ps.rounds),
                            spread_cfg);
    });
    t.rounds += election.rounds + ps.rounds + spread.rounds;
    for (NodeId r : forest.roots())
      root_value[r] = spread.key[r] == kKeyBottom ? 0.0 : decode_ordered(spread.key[r]);
  } else {
    std::vector<std::uint64_t> keys(n, kKeyBottom);
    for (NodeId r : forest.roots()) keys[r] = encode_ordered(cc.aggregate[r]);
    GossipMaxConfig gm_cfg = config.gossip_max;
    gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 3);
    gm_cfg.round_budget_scale *= budget_scale;
    gm_cfg.member_relay &= relay;
    const GossipMaxResult gm = timed(t.phase[kGossipMax], [&] {
      return run_gossip_max(forest, keys, rngs, scenario.at_round(end_round), gm_cfg);
    });
    t.rounds += gm.rounds;
    for (NodeId r : forest.roots()) root_value[r] = decode_ordered(gm.key[r]);
  }

  // Final value broadcast (drr_gossip.cpp: finish).
  BroadcastConfig value_cfg = config.broadcast;
  value_cfg.stream_tag = derive_seed(value_cfg.stream_tag, 2);
  const BroadcastResult value_bc = timed(t.phase[kValueBroadcast], [&] {
    return run_broadcast(forest, root_value, rngs,
                         scenario.at_round(scenario.start_round + t.rounds), value_cfg);
  });
  t.rounds += value_bc.rounds;

  t.forest.num_trees = forest.num_trees();
  t.forest.max_tree_size = forest.max_tree_size();
  t.forest.max_tree_height = forest.max_tree_height();
  t.forest.largest_tree_root = forest.largest_tree_root();
  t.value = root_value[t.forest.largest_tree_root];
  t.total_s = seconds_since(start);
  return t;
}

std::string compare(const DenseTrace& t, const api::RunReport& report) {
  std::string out;
  const PhaseMetrics& p = report.phases;
  diff(out, "drr", t.phase[kDrr].counters, p.drr);
  diff(out, "convergecast", t.phase[kConvergecast].counters, p.convergecast);
  diff(out, "addr_broadcast", t.phase[kAddrBroadcast].counters, p.root_broadcast);
  sim::Counters gossip = t.phase[kGossipMax].counters;
  gossip += t.phase[kElection].counters;
  gossip += t.phase[kPushSum].counters;
  diff(out, "gossip", gossip, p.gossip);
  diff(out, "spread", t.phase[kSpread].counters, p.spread);
  diff(out, "value_broadcast", t.phase[kValueBroadcast].counters, p.value_broadcast);
  if (t.rounds != report.rounds)
    out += "rounds " + std::to_string(t.rounds) + " != " + std::to_string(report.rounds) +
           "; ";
  if (t.forest.num_trees != report.forest.num_trees ||
      t.forest.max_tree_size != report.forest.max_tree_size ||
      t.forest.max_tree_height != report.forest.max_tree_height ||
      t.forest.largest_tree_root != report.forest.largest_tree_root)
    out += "forest shape differs; ";
  if (t.value != report.value) out += "value differs; ";
  return out;
}

ChordTrace replay_chord(const api::RunSpec& spec) {
  ChordTrace t;
  auto start = Clock::now();
  const ChordOverlay overlay{spec.n, spec.seed};
  t.overlay_s = seconds_since(start);
  start = Clock::now();
  const Graph links = overlay_graph(overlay);
  t.links_s = seconds_since(start);
  // chord-drr's scenario: the overlay is the substrate, so the topology
  // stays complete and only the fault schedule applies.
  const sim::Scenario scenario{sim::Topology::complete(), spec.faults};
  start = Clock::now();
  const LocalDrrResult drr = run_local_drr(links, RngFactory{spec.seed}, scenario,
                                           SparseGossipConfig{}.local_drr);
  t.local_drr_s = seconds_since(start);
  t.local_drr = drr.counters;
  return t;
}

std::string compare(const ChordTrace& t, const api::RunReport& report) {
  std::string out;
  diff(out, "local_drr", t.local_drr, report.phases.drr);
  return out;
}

}  // namespace perfbench
