#include "drr/drr.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

struct DrrMsg {
  enum class Kind : std::uint8_t { kProbe, kProbeReply, kConnect, kConnectAck };
  Kind kind;
  double rank = 0.0;  // kProbeReply: responder's rank
};

/// Per-node payload sizes in bits: probes carry only the sender address
/// (implicit in the call); replies carry a rank (an O(log n)-bit
/// discretised value suffices -- see Algorithm 1's remark that ranks from
/// [1, n^3] give the same bounds, i.e. 3 log n bits).
///
/// Algorithm 1's rules live in `DrrRules` (drr/drr_rules.hpp); the
/// protocol keeps the ranks, the per-node states, the active list and the
/// result packaging, and the engine upcalls and the flat executor below
/// both drive it.
struct DrrProtocol {
  using Action = DrrRules::Action;

  DrrProtocol(std::uint32_t n_, const DrrConfig& cfg, bool complete_graph)
      : rules(n_, cfg, complete_graph),
        rank_bits(3 * address_bits(n_)),
        addr_bits(address_bits(n_)),
        rank(n_, 0.0),
        state(n_) {}

  DrrRules rules;
  std::uint32_t rank_bits;
  std::uint32_t addr_bits;
  /// Ranks live in their own dense array: the probe-reply handler touches
  /// nothing else, and probes hit random nodes -- a 32 KB rank table stays
  /// cache-resident where the full state records would not.
  std::vector<double> rank;
  std::vector<DrrNode> state;
  std::vector<sim::NodeId> active;  // unsettled nodes, ascending
  std::uint64_t total_probes = 0;
  std::uint32_t unsettled = 0;

  /// `nodes` (ascending) draw their ranks and start active.
  template <class RngOf>
  void draw_ranks(std::vector<sim::NodeId> nodes, RngOf&& rng_of) {
    for (sim::NodeId v : nodes) rank[v] = draw_rank(rng_of(v));
    unsettled = static_cast<std::uint32_t>(nodes.size());
    active = std::move(nodes);
  }

  /// Settled nodes are pure no-ops in on_round/on_round_end; handing the
  /// engine the shrinking unsettled list keeps the late rounds (few
  /// stragglers retrying connects) from scanning all n nodes.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return active;
  }

  Action begin_round(sim::NodeId v) {
    const Action action = rules.begin_round(state[v]);
    if (action == Action::kProbe) ++total_probes;
    return action;
  }

  void connected(sim::NodeId v, sim::NodeId parent) {
    if (DrrRules::connected(state[v], parent)) --unsettled;
  }

  void end_round(sim::NodeId v) {
    if (rules.end_round(state[v])) --unsettled;
  }

  /// Drops settled nodes from the active list (between rounds, never
  /// while a round loop iterates it); true once every node has settled.
  bool prune() {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [this](sim::NodeId v) { return state[v].settled; }),
                 active.end());
    return unsettled == 0;
  }

  /// The forest over the nodes `alive` at the end.  A parent that crashed
  /// mid-phase (churn) is gone: its orphaned child becomes a root, exactly
  /// as if the connection had never been acked.
  template <class Alive>
  DrrResult result(Alive&& alive, const sim::Counters& counters, std::uint32_t rounds) {
    std::vector<NodeId> parent(rules.n, kNoParent);
    std::vector<bool> member(rules.n, false);
    for (NodeId v = 0; v < rules.n; ++v) {
      if (!alive(v)) {
        rank[v] = 0.0;
        continue;
      }
      member[v] = true;
      parent[v] = state[v].parent;
      if (parent[v] != kNoParent && !alive(parent[v])) parent[v] = kNoParent;
    }
    return {Forest::from_parents(std::move(parent), std::move(member)), std::move(rank),
            counters, total_probes, rounds};
  }

  // --- engine upcalls -----------------------------------------------------

  void on_round(sim::Network<DrrMsg>& net, sim::NodeId v) {
    const Action action = begin_round(v);
    if (action == Action::kConnect)
      net.send(v, state[v].pending_parent, DrrMsg{DrrMsg::Kind::kConnect, 0.0}, addr_bits);
    else if (action == Action::kProbe)
      net.send(v, rules.probe_target(v, net.sample_peer(v)),
               DrrMsg{DrrMsg::Kind::kProbe, 0.0}, addr_bits);
  }

  void on_message(sim::Network<DrrMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const DrrMsg& m) {
    if (m.kind == DrrMsg::Kind::kProbe)
      net.reply(dst, src, DrrMsg{DrrMsg::Kind::kProbeReply, rank[dst]}, rank_bits);
    else if (m.kind == DrrMsg::Kind::kConnect)
      net.reply(dst, src, DrrMsg{DrrMsg::Kind::kConnectAck, 0.0}, addr_bits);
  }

  void on_reply(sim::Network<DrrMsg>&, sim::NodeId src, sim::NodeId dst, const DrrMsg& m) {
    if (m.kind == DrrMsg::Kind::kProbeReply)
      DrrRules::probe_answered(state[dst], src, m.rank, rank[dst]);
    else if (m.kind == DrrMsg::Kind::kConnectAck)
      connected(dst, src);
  }

  void on_round_end(sim::Network<DrrMsg>&, sim::NodeId v) { end_round(v); }

  [[nodiscard]] bool done(const sim::Network<DrrMsg>&) { return prune(); }
};

/// Flat fault-free executor.  With no losses possible, every probe is
/// answered in its own round and the first connect call is acknowledged
/// immediately, so the whole round resolves inline: probe replies read
/// only the static rank table and connect acks read nothing, so no
/// handler can observe another node's same-round mutations -- inlining
/// the two delivery passes is exactly the engine's schedule.  Counters,
/// RNG draw order (ranks then probes, one stream per node) and the
/// resulting forest are bit-identical to the Network path (pinned by the
/// golden determinism tests).
DrrResult run_drr_flat(std::uint32_t n, const RngFactory& rngs,
                       const sim::Scenario& scenario, const DrrConfig& config,
                       std::uint64_t purpose) {
  DrrProtocol proto{n, config, scenario.topology.is_complete()};
  std::vector<Rng> rng;
  rng.reserve(n);
  for (NodeId v = 0; v < n; ++v) rng.push_back(rngs.node_stream(v, purpose));
  std::vector<sim::NodeId> everyone(n);
  for (NodeId v = 0; v < n; ++v) everyone[v] = v;
  proto.draw_ranks(std::move(everyone), [&rng](NodeId v) -> Rng& { return rng[v]; });

  std::uint64_t connects = 0;  // connect + ack exchanges
  const sim::Topology::PeerSampler sample = scenario.topology.sampler(n);
  std::uint32_t rounds = 0;
  while (rounds < proto.rules.max_rounds()) {
    ++rounds;
    for (NodeId v : proto.active) {
      const DrrProtocol::Action action = proto.begin_round(v);
      if (action == DrrProtocol::Action::kConnect) {  // connect + ack, both this round
        ++connects;
        proto.connected(v, proto.state[v].pending_parent);
      } else if (action == DrrProtocol::Action::kProbe) {  // probe + rank reply
        const NodeId u = proto.rules.probe_target(v, sample(v, rng[v]));
        DrrRules::probe_answered(proto.state[v], u, proto.rank[u], proto.rank[v]);
      }
      proto.end_round(v);
    }
    if (proto.prune()) break;
  }

  const std::uint64_t probes = proto.total_probes;
  sim::Counters counters;
  counters.sent = 2 * (probes + connects);
  counters.delivered = 2 * (probes + connects);
  counters.bits = probes * (proto.addr_bits + proto.rank_bits) +
                  connects * 2 * proto.addr_bits;
  counters.rounds = rounds;
  return proto.result([](NodeId) { return true; }, counters, rounds);
}

}  // namespace

DrrResult run_drr(std::uint32_t n, const RngFactory& rngs, const sim::Scenario& scenario,
                  DrrConfig config) {
  if (n < 2) throw std::invalid_argument("run_drr: need n >= 2");
  const std::uint64_t purpose = drr_stream_purpose(config.stream_tag);
  if (scenario.faults.fault_free()) return run_drr_flat(n, rngs, scenario, config, purpose);
  sim::Network<DrrMsg> net{n, rngs, scenario, purpose};
  DrrProtocol proto{n, config, scenario.topology.is_complete()};
  proto.draw_ranks(net.alive_nodes(), [&net](NodeId v) -> Rng& { return net.node_rng(v); });
  const std::uint32_t rounds = net.run(proto, proto.rules.max_rounds());
  return proto.result([&net](NodeId v) { return net.alive(v); }, net.counters(), rounds);
}

}  // namespace drrg
