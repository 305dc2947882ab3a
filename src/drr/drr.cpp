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
/// The protocol owns Algorithm 1's rules (what a node does this round, a
/// probe answer, an acknowledged connect, the end-of-round root rule) and
/// the result packaging; the engine upcalls and the flat executor below
/// both call those members.
struct DrrProtocol {
  enum class Action : std::uint8_t { kIdle, kConnect, kProbe };

  DrrProtocol(std::uint32_t n_, const DrrConfig& cfg, bool complete_graph)
      : n(n_),
        complete(complete_graph),
        budget(cfg.probe_budget != 0 ? cfg.probe_budget : drr_probe_budget(n_)),
        connect_cap(cfg.connect_attempt_cap),
        rank_bits(3 * address_bits(n_)),
        addr_bits(address_bits(n_)),
        rank(n_, 0.0),
        state(n_) {}

  struct NodeState {
    std::uint32_t attempts = 0;         // probes consumed
    bool probe_outstanding = false;     // sent this round, awaiting reply
    std::uint32_t connect_attempts = 0;
    sim::NodeId pending_parent = sim::kNoNode;  // found, not yet acked
    sim::NodeId parent = sim::kNoNode;          // acknowledged parent
    bool settled = false;
  };

  std::uint32_t n;
  bool complete;
  std::uint32_t budget;
  std::uint32_t connect_cap;
  std::uint32_t rank_bits;
  std::uint32_t addr_bits;
  /// Ranks live in their own dense array: the probe-reply handler touches
  /// nothing else, and probes hit random nodes -- a 32 KB rank table stays
  /// cache-resident where the full state records would not.
  std::vector<double> rank;
  std::vector<NodeState> state;
  std::vector<sim::NodeId> active;  // unsettled nodes, ascending
  std::uint64_t total_probes = 0;
  std::uint32_t unsettled = 0;

  /// Each node's first draw is its rank; `nodes` (ascending) start active.
  template <class RngOf>
  void draw_ranks(std::vector<sim::NodeId> nodes, RngOf&& rng_of) {
    for (sim::NodeId v : nodes) rank[v] = rng_of(v).next_unit();
    unsettled = static_cast<std::uint32_t>(nodes.size());
    active = std::move(nodes);
  }

  /// Settled nodes are pure no-ops in on_round/on_round_end; handing the
  /// engine the shrinking unsettled list keeps the late rounds (few
  /// stragglers retrying connects) from scanning all n nodes.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return active;
  }

  void settle(NodeState& s) {
    if (!s.settled) {
      s.settled = true;
      --unsettled;
    }
  }

  /// Rule: a node calls its chosen parent until acknowledged, else probes
  /// while its budget lasts.
  Action begin_round(sim::NodeId v) {
    NodeState& s = state[v];
    if (s.settled) return Action::kIdle;
    if (s.pending_parent != sim::kNoNode) {
      ++s.connect_attempts;
      return Action::kConnect;
    }
    if (s.attempts >= budget) return Action::kIdle;
    s.probe_outstanding = true;
    ++total_probes;
    return Action::kProbe;
  }

  /// Self-samples tell us nothing; on the complete graph skip them cheaply
  /// (the analysis assumes distinct samples whp).  On an explicit topology
  /// only an isolated node self-samples: its probe is a spent attempt and
  /// it becomes a root by exhaustion.
  [[nodiscard]] sim::NodeId probe_target(sim::NodeId v, sim::NodeId sampled) const {
    return sampled == v && complete ? (sampled + 1) % n : sampled;
  }

  /// Rule: a probe of u answered with u's rank; a higher rank makes u the
  /// pending parent.
  void probe_answered(sim::NodeId v, sim::NodeId u, double rank_u) {
    NodeState& s = state[v];
    s.probe_outstanding = false;
    ++s.attempts;
    if (rank_u > rank[v]) s.pending_parent = u;
  }

  /// Rule: the connect to `parent` was acknowledged.  Duplicates from
  /// retries are idempotent: children are rebuilt from parent pointers.
  void connected(sim::NodeId v, sim::NodeId parent) {
    state[v].parent = parent;
    settle(state[v]);
  }

  /// End-of-round root rule.
  void end_round(sim::NodeId v) {
    NodeState& s = state[v];
    if (s.settled) return;
    if (s.probe_outstanding) {
      // The call was lost: the sampled node told us nothing, the attempt
      // is spent (conservative -- can only create extra roots).
      s.probe_outstanding = false;
      ++s.attempts;
    }
    if (s.pending_parent != sim::kNoNode) {
      if (s.connect_attempts >= connect_cap) settle(s);  // root by exhaustion
      return;
    }
    if (s.attempts >= budget) settle(s);  // no higher-ranked node found: root
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
    std::vector<NodeId> parent(n, kNoParent);
    std::vector<bool> member(n, false);
    for (NodeId v = 0; v < n; ++v) {
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

  /// Probe budget rounds plus connection retries; the +2 covers the final
  /// connect/ack exchange.  Both executors usually stop earlier.
  [[nodiscard]] std::uint32_t max_rounds() const { return budget + connect_cap + 2; }

  // --- engine upcalls -----------------------------------------------------

  void on_round(sim::Network<DrrMsg>& net, sim::NodeId v) {
    const Action action = begin_round(v);
    if (action == Action::kConnect)
      net.send(v, state[v].pending_parent, DrrMsg{DrrMsg::Kind::kConnect, 0.0}, addr_bits);
    else if (action == Action::kProbe)
      net.send(v, probe_target(v, net.sample_peer(v)), DrrMsg{DrrMsg::Kind::kProbe, 0.0},
               addr_bits);
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
      probe_answered(dst, src, m.rank);
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
  while (rounds < proto.max_rounds()) {
    ++rounds;
    for (NodeId v : proto.active) {
      const DrrProtocol::Action action = proto.begin_round(v);
      if (action == DrrProtocol::Action::kConnect) {  // connect + ack, both this round
        ++connects;
        proto.connected(v, proto.state[v].pending_parent);
      } else if (action == DrrProtocol::Action::kProbe) {  // probe + rank reply
        const NodeId u = proto.probe_target(v, sample(v, rng[v]));
        proto.probe_answered(v, u, proto.rank[u]);
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
  const std::uint64_t purpose =
      config.stream_tag != 0 ? derive_seed(0x11ddULL, config.stream_tag) : 0x11ddULL;
  if (scenario.faults.fault_free()) return run_drr_flat(n, rngs, scenario, config, purpose);
  sim::Network<DrrMsg> net{n, rngs, scenario, purpose};
  DrrProtocol proto{n, config, scenario.topology.is_complete()};
  proto.draw_ranks(net.alive_nodes(), [&net](NodeId v) -> Rng& { return net.node_rng(v); });
  const std::uint32_t rounds = net.run(proto, proto.max_rounds());
  return proto.result([&net](NodeId v) { return net.alive(v); }, net.counters(), rounds);
}

}  // namespace drrg
