#include "baselines/efficient_gossip.hpp"

#include <algorithm>
#include <stdexcept>

#include "forest/forest.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

// ---------------------------------------------------------------------------
// Stage 1: phased group merging.

struct MergeMsg {
  enum class Kind : std::uint8_t {
    kProbe,        // forwarded up chains to a leader
    kReject,       // direct to the probing leader
    kAccept,       // direct to the probing leader, carries the group aggregate
    kConfirm       // reply to kAccept (reliable): finalises the transfer
  };
  Kind kind;
  sim::NodeId origin = sim::kNoNode;  // probing leader
  std::uint32_t origin_size = 0;
  double sum = 0.0;
  double cnt = 0.0;
  double mx = 0.0;
  std::uint32_t size = 0;
};

struct MergeProtocol {
  MergeProtocol(std::uint32_t n, std::span<const double> values,
                std::uint32_t phases_, std::uint32_t phase_rounds_,
                std::uint32_t timeout_)
      : phases(phases_), phase_rounds(phase_rounds_), timeout(timeout_),
        msg_bits(3 * 64 + 2 * address_bits(n)), state(n) {
    for (std::uint32_t v = 0; v < n; ++v) {
      state[v].sum = values[v];
      state[v].mx = values[v];
    }
  }

  struct NodeState {
    bool leader = true;
    sim::NodeId parent = sim::kNoNode;
    bool merged_phase = false;   // already took part in a merge this phase
    std::uint32_t size = 1;
    double sum = 0.0;
    double cnt = 1.0;
    double mx = 0.0;
    // Prober side.
    bool outstanding = false;
    std::uint32_t probe_timer = 0;
    // Acceptor side (tentative until the confirm arrives).
    bool accept_pending = false;
    std::uint32_t accept_timer = 0;
    sim::NodeId accept_target = sim::kNoNode;
  };

  std::uint32_t phases;
  std::uint32_t phase_rounds;
  std::uint32_t timeout;
  std::uint32_t msg_bits;
  std::vector<NodeState> state;

  [[nodiscard]] std::uint32_t phase_of(std::uint32_t round) const {
    return round / phase_rounds;
  }

  void on_round(sim::Network<MergeMsg>& net, sim::NodeId v) {
    NodeState& s = state[v];
    if (net.round() % phase_rounds == 0) s.merged_phase = false;  // phase boundary
    if (!s.leader || s.merged_phase || s.outstanding || s.accept_pending) return;
    // Randomized role: with probability 1/2 probe, otherwise listen.  If
    // every leader probed simultaneously, every probe would land on a
    // busy leader and be rejected -- the coin keeps half the leaders
    // acceptor-eligible each round.
    if (!net.node_rng(v).next_bernoulli(0.5)) return;
    const sim::NodeId u = net.sample_peer(v);
    if (u == v) return;  // try again next round
    s.outstanding = true;
    s.probe_timer = 0;
    net.send(v, u, MergeMsg{MergeMsg::Kind::kProbe, v, s.size, 0, 0, 0, 0}, msg_bits);
  }

  void on_message(sim::Network<MergeMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const MergeMsg& m) {
    NodeState& s = state[dst];
    switch (m.kind) {
      case MergeMsg::Kind::kProbe: {
        if (!s.leader) {
          net.send(dst, s.parent, m, msg_bits);  // walk the chain upward
          return;
        }
        const bool acceptable = m.origin != dst && !s.merged_phase && !s.outstanding &&
                                !s.accept_pending && s.size <= m.origin_size;
        if (!acceptable) {
          net.send(dst, m.origin, MergeMsg{MergeMsg::Kind::kReject, dst, 0, 0, 0, 0, 0},
                   msg_bits);
          return;
        }
        // Tentatively hand the group over; finalised by the confirm.
        s.accept_pending = true;
        s.accept_timer = 0;
        s.accept_target = m.origin;
        s.merged_phase = true;
        net.send(dst, m.origin,
                 MergeMsg{MergeMsg::Kind::kAccept, dst, 0, s.sum, s.cnt, s.mx, s.size},
                 msg_bits);
        break;
      }
      case MergeMsg::Kind::kReject:
        if (s.outstanding) s.outstanding = false;  // retry next round
        break;
      case MergeMsg::Kind::kAccept:
        // A very late accept (probe delayed on a long chain) can reach a
        // node that has since been absorbed or is itself mid-handover;
        // without the confirm the offering group reverts, so no aggregate
        // is ever lost or duplicated.
        if (!s.leader || s.accept_pending) break;
        s.sum += m.sum;
        s.cnt += m.cnt;
        s.mx = std::max(s.mx, m.mx);
        s.size += m.size;
        s.merged_phase = true;
        s.outstanding = false;
        net.reply(dst, src, MergeMsg{MergeMsg::Kind::kConfirm, dst, 0, 0, 0, 0, 0}, 1);
        break;
      case MergeMsg::Kind::kConfirm:
        break;  // handled in on_reply
    }
  }

  void on_reply(sim::Network<MergeMsg>&, sim::NodeId src, sim::NodeId dst,
                const MergeMsg& m) {
    if (m.kind != MergeMsg::Kind::kConfirm) return;
    NodeState& s = state[dst];
    if (!s.accept_pending || s.accept_target != src) return;
    // Transfer finalised: stop being a leader, join src's group.
    s.accept_pending = false;
    s.leader = false;
    s.parent = src;
    s.sum = s.cnt = s.mx = 0.0;
    s.size = 0;
  }

  void on_round_end(sim::Network<MergeMsg>&, sim::NodeId v) {
    NodeState& s = state[v];
    if (s.outstanding && ++s.probe_timer >= timeout) s.outstanding = false;
    if (s.accept_pending && ++s.accept_timer >= 2) {
      // The accept was lost in flight: the transfer did not happen.
      s.accept_pending = false;
      s.merged_phase = false;
    }
  }
};

// ---------------------------------------------------------------------------
// Stage 2/4: chain queries (address resolution, then value fetch).

struct QueryMsg {
  enum class Kind : std::uint8_t { kQuery, kReply };
  Kind kind;
  sim::NodeId origin = sim::kNoNode;
  double payload = 0.0;
};

/// Every non-root sends a query towards its leader (multi-hop along
/// `parent` for address resolution; direct once addresses are known); the
/// leader answers straight back to the origin.  Lossy sends are retried.
struct QueryProtocol {
  QueryProtocol(const std::vector<sim::NodeId>& parent_, std::span<const double> answer_,
                std::uint32_t timeout_, std::uint32_t attempt_cap_, bool direct_,
                const std::vector<sim::NodeId>& leader_, std::uint32_t n)
      : parent(parent_), answer(answer_.begin(), answer_.end()), timeout(timeout_),
        attempt_cap(attempt_cap_), direct(direct_), leader(leader_),
        msg_bits(64 + 2 * address_bits(n)), state(n) {}

  struct NodeState {
    bool resolved = false;
    double received = 0.0;
    std::uint32_t attempts = 0;
    std::uint32_t timer = 0;
    bool waiting = false;
  };

  const std::vector<sim::NodeId>& parent;
  std::vector<double> answer;  // at leaders: the value to serve
  std::uint32_t timeout;
  std::uint32_t attempt_cap;
  bool direct;                          // send straight to leader[] target
  const std::vector<sim::NodeId>& leader;  // used when direct
  std::uint32_t msg_bits;
  std::vector<NodeState> state;
  std::uint32_t unresolved = 0;  // maintained by runner

  void on_round(sim::Network<QueryMsg>& net, sim::NodeId v) {
    NodeState& s = state[v];
    if (s.resolved || s.waiting || parent[v] == sim::kNoNode) return;
    if (s.attempts >= attempt_cap) return;
    ++s.attempts;
    s.waiting = true;
    s.timer = 0;
    const sim::NodeId target = direct ? leader[v] : parent[v];
    net.send(v, target, QueryMsg{QueryMsg::Kind::kQuery, v, 0.0}, msg_bits);
  }

  void on_message(sim::Network<QueryMsg>& net, sim::NodeId, sim::NodeId dst,
                  const QueryMsg& m) {
    if (m.kind == QueryMsg::Kind::kQuery) {
      if (parent[dst] != sim::kNoNode && !direct) {
        net.send(dst, parent[dst], m, msg_bits);  // keep walking up
        return;
      }
      net.send(dst, m.origin, QueryMsg{QueryMsg::Kind::kReply, dst, answer[dst]},
               msg_bits);
      return;
    }
    NodeState& s = state[dst];
    if (!s.resolved) {
      s.resolved = true;
      s.received = m.payload;
      s.waiting = false;
      if (unresolved > 0) --unresolved;
    }
  }

  void on_round_end(sim::Network<QueryMsg>&, sim::NodeId v) {
    NodeState& s = state[v];
    if (s.waiting && ++s.timer >= timeout) s.waiting = false;  // retry
  }

  [[nodiscard]] bool done(const sim::Network<QueryMsg>&) const { return unresolved == 0; }
};

struct QueryOutcome {
  std::vector<double> received;
  std::vector<bool> resolved;
  sim::Counters counters;
  std::uint32_t rounds = 0;
};

QueryOutcome run_query(const std::vector<sim::NodeId>& parent,
                       std::span<const double> answer, const RngFactory& rngs,
                       const sim::Scenario& scenario, std::uint32_t timeout,
                       std::uint32_t attempt_cap, bool direct,
                       const std::vector<sim::NodeId>& leader, std::uint64_t purpose) {
  const auto n = static_cast<std::uint32_t>(parent.size());
  sim::Network<QueryMsg> net{n, rngs, scenario, purpose};
  QueryProtocol proto{parent, answer, timeout, attempt_cap, direct, leader, n};
  for (sim::NodeId v : net.alive_nodes())
    if (parent[v] != sim::kNoNode) ++proto.unresolved;

  const std::uint32_t max_rounds = attempt_cap * (timeout + 1) + 4;
  const std::uint32_t rounds = net.run(proto, max_rounds);

  QueryOutcome out;
  out.received.assign(n, 0.0);
  out.resolved.assign(n, false);
  for (sim::NodeId v = 0; v < n; ++v) {
    out.received[v] = proto.state[v].received;
    out.resolved[v] = proto.state[v].resolved || parent[v] == sim::kNoNode;
  }
  out.counters = net.counters();
  out.rounds = rounds;
  return out;
}

// ---------------------------------------------------------------------------
// Shared driver.

struct MergeOutcome {
  std::vector<sim::NodeId> parent;  // chain pointers (kNoNode at leaders)
  std::vector<double> sum, cnt, mx;
  Forest forest;                    // flattened chains
  std::vector<sim::NodeId> leader;  // resolved leader per node
  sim::Counters counters;
  std::uint32_t rounds = 0;
  bool resolution_complete = false;
};

MergeOutcome run_merge_stages(std::uint32_t n, std::span<const double> values,
                              const RngFactory& rngs, const sim::Scenario& scenario,
                              const EfficientGossipConfig& config) {
  const std::uint32_t lg = ceil_log2(n);
  const std::uint32_t phases =
      config.phases != 0 ? config.phases
                         : std::max<std::uint32_t>(1, ceil_log2(std::max<std::uint32_t>(2, lg)));
  const std::uint32_t phase_rounds =
      config.phase_rounds != 0 ? config.phase_rounds : std::max<std::uint32_t>(4, lg);
  const std::uint32_t timeout =
      config.probe_timeout != 0 ? config.probe_timeout : phases + 4;

  sim::Network<MergeMsg> net{n, rngs, scenario, /*purpose=*/0xe99};
  MergeProtocol proto{n, values, phases, phase_rounds, timeout};

  // The merge schedule is fixed: synchronous nodes cannot detect global
  // completion, so the full phases x phase_rounds budget is always run --
  // this is precisely the O(log n log log n) time of [8].
  const std::uint32_t scheduled = phases * phase_rounds;
  for (std::uint32_t r = 0; r < scheduled; ++r) net.step(proto);

  MergeOutcome out;
  out.parent.assign(n, sim::kNoNode);
  out.sum.assign(n, 0.0);
  out.cnt.assign(n, 0.0);
  out.mx.assign(n, 0.0);
  std::vector<bool> member(n, false);
  for (sim::NodeId v : net.alive_nodes()) {
    member[v] = true;
    out.parent[v] = proto.state[v].leader ? kNoParent : proto.state[v].parent;
    out.sum[v] = proto.state[v].sum;
    out.cnt[v] = proto.state[v].cnt;
    out.mx[v] = proto.state[v].mx;
  }
  // A chain parent that crashed mid-merge (churn) is gone: its orphaned
  // followers become leaders of what they have absorbed so far.
  for (sim::NodeId v = 0; v < n; ++v)
    if (member[v] && out.parent[v] != kNoParent && !member[out.parent[v]])
      out.parent[v] = kNoParent;
  out.forest = Forest::from_parents(out.parent, member);
  out.counters = net.counters();
  out.rounds = scheduled;

  // Address resolution: one query per node up its chain, resuming the
  // scenario's global clock after the merge rounds.
  std::vector<double> leader_addr(n, 0.0);
  for (NodeId r : out.forest.roots()) leader_addr[r] = static_cast<double>(r);
  std::vector<sim::NodeId> no_leader;  // unused in chain mode
  const QueryOutcome addr = run_query(
      out.parent, leader_addr, rngs,
      scenario.at_round(scenario.start_round + scheduled), timeout,
      config.query_attempt_cap, /*direct=*/false, no_leader, 0xadd2);
  out.counters += addr.counters;
  out.rounds += addr.rounds;
  out.leader.assign(n, sim::kNoNode);
  out.resolution_complete = true;
  for (sim::NodeId v = 0; v < n; ++v) {
    if (!member[v]) continue;
    if (out.parent[v] == kNoParent) {
      out.leader[v] = v;
    } else if (addr.resolved[v]) {
      out.leader[v] = static_cast<sim::NodeId>(addr.received[v]);
    } else {
      out.resolution_complete = false;
      out.leader[v] = out.forest.root_of(v);  // fallback, flagged above
    }
  }
  return out;
}

EfficientGossipResult begin_result(const MergeOutcome& merge) {
  EfficientGossipResult out;
  out.counters = merge.counters;
  out.rounds_total = merge.rounds;
  out.num_groups = merge.forest.num_trees();
  out.max_group_size = merge.forest.max_tree_size();
  return out;
}

/// The scenario resumed after every stage run so far.
sim::Scenario resume(const sim::Scenario& scenario, const EfficientGossipResult& out) {
  return scenario.at_round(scenario.start_round + out.rounds_total);
}

/// `cfg` with its stream tag salted by `tag`.
template <class Config>
Config tagged(Config cfg, std::uint64_t tag) {
  cfg.stream_tag = derive_seed(cfg.stream_tag, tag);
  return cfg;
}

/// Leaders agree iff they hold the same final key, and unresolved leader
/// addresses break consensus too.  Members then fetch the result from
/// their (now known) leader: one direct query + direct reply each.
void finish(const MergeOutcome& merge, std::span<const std::uint64_t> key,
            std::span<const double> leader_value, const RngFactory& rngs,
            const sim::Scenario& scenario, const EfficientGossipConfig& config,
            EfficientGossipResult& out) {
  out.consensus = merge.resolution_complete;
  for (NodeId r : merge.forest.roots())
    if (key[r] != key[merge.forest.roots().front()]) out.consensus = false;
  out.value = leader_value[merge.forest.largest_tree_root()];

  const QueryOutcome fetch =
      run_query(merge.parent, leader_value, rngs, resume(scenario, out), /*timeout=*/2,
                config.query_attempt_cap, /*direct=*/true, merge.leader, 0xfe7c);
  out.counters += fetch.counters;
  out.rounds_total += fetch.rounds;
  out.per_node.assign(merge.parent.size(), 0.0);
  for (std::size_t v = 0; v < merge.parent.size(); ++v) {
    if (merge.parent[v] == kNoParent) {
      out.per_node[v] = leader_value[v];
    } else if (fetch.resolved[v]) {
      out.per_node[v] = fetch.received[v];
    } else {
      out.consensus = false;
    }
  }
}

}  // namespace

EfficientGossipResult efficient_gossip_max(std::uint32_t n,
                                           std::span<const double> values,
                                           std::uint64_t seed, const sim::Scenario& scenario,
                                           EfficientGossipConfig config) {
  if (n < 2) throw std::invalid_argument("efficient_gossip: need n >= 2");
  if (values.size() < n) throw std::invalid_argument("efficient_gossip: values too short");
  RngFactory rngs{seed};
  MergeOutcome merge = run_merge_stages(n, values, rngs, scenario, config);
  EfficientGossipResult out = begin_result(merge);

  // Leaders gossip their group maxima (the DRR pipelines' Phase III);
  // every later stage resumes the scenario's global clock.
  std::vector<double> leader_value;
  const GossipMaxResult gm =
      gossip_max_of_values(merge.forest, merge.mx, leader_value, rngs, resume(scenario, out),
                           tagged(config.gossip_max, 0xe91));
  out.counters += gm.counters;
  out.rounds_total += gm.rounds;
  finish(merge, gm.key, leader_value, rngs, scenario, config, out);
  return out;
}

EfficientGossipResult efficient_gossip_ave(std::uint32_t n,
                                           std::span<const double> values,
                                           std::uint64_t seed, const sim::Scenario& scenario,
                                           EfficientGossipConfig config) {
  if (n < 2) throw std::invalid_argument("efficient_gossip: need n >= 2");
  if (values.size() < n) throw std::invalid_argument("efficient_gossip: values too short");
  RngFactory rngs{seed};
  MergeOutcome merge = run_merge_stages(n, values, rngs, scenario, config);
  EfficientGossipResult out = begin_result(merge);

  // The Algorithm 8 shape over groups: elect the largest group, push-sum
  // the (sum, count) pairs, spread the elected leader's estimate.
  std::vector<double> leader_value;
  const RootAverageResult avg = average_over_roots(
      merge.forest, merge.sum, merge.cnt, /*sum_mode=*/false, leader_value, rngs,
      resume(scenario, out), tagged(config.gossip_max, 0xe92),
      tagged(config.push_sum, 0xe93), tagged(config.gossip_max, 0xe94));
  out.counters += avg.gossip;
  out.counters += avg.spread;
  out.rounds_total += avg.rounds;
  finish(merge, avg.key, leader_value, rngs, scenario, config, out);
  return out;
}

}  // namespace drrg
