#include "rootgossip/gossip_ave.hpp"

#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "rootgossip/ordered_key.hpp"
#include "rootgossip/root_relay.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"
#include "support/scratch.hpp"

namespace drrg {

namespace {

// Pooled Phase III staging (support/scratch.hpp); tags 20+ keep these
// disjoint from the pipelines' slots.
enum ScratchTag : int { kScratchSizeKeys = 21, kScratchIndicator, kScratchSpreadInit };

// The protocol is compiled twice: the measurement variant (kTrack) carries
// the Lemma 8 contribution half-rows in every message, the production
// variant carries a 24-byte POD -- no vector member, no heap traffic on
// the engine's hottest queue.  Both draw identical randomness (streams are
// a function of seed/purpose only), so the split is observationally free.
struct NoPayload {};

template <bool kTrack>
struct PsMsg {
  // kRelayMass: first hop of the member relay on explicit topologies (the
  // root hands its half to a uniform random member of its own tree, which
  // samples *its* substrate neighbor) -- see GmMsg in
  // gossip_max_protocol.hpp for the rationale.
  enum class Kind : std::uint8_t { kMass, kAck, kRelayMass };
  // Field order keeps the production variant at 24 bytes (32-byte queue
  // envelopes): the queues are the engine's hottest memory traffic.
  double num = 0.0;
  double den = 0.0;
  // Sender-local sequence number of the initiating half, echoed by the
  // first-hop ack: under event-time latency several halves from one root
  // are outstanding at once, and the ack must resolve the right one.
  std::uint32_t seq = 0;
  // True on the initiating hop from the sending root; the first receiver
  // acknowledges it so the sender can detect a lost call.
  bool first_hop = false;
  Kind kind = Kind::kMass;
  // Contribution half-row (kTrack only).  The vector is bookkeeping for
  // the Lemma 8 measurement, not protocol payload -- bit accounting
  // charges only the (num, den) pair.
  [[no_unique_address]] std::conditional_t<kTrack, std::vector<double>, NoPayload> y{};
};

template <bool kTrack>
struct PushSumProtocol {
  using Msg = PsMsg<kTrack>;

  PushSumProtocol(const Forest& f, std::span<const double> num0,
                  std::span<const double> den0, const PushSumConfig& cfg,
                  std::uint32_t n, bool relay_members, std::uint32_t latency_bound)
      : forest(f),
        forward(cfg.forward_via_trees),
        relay(relay_members && cfg.forward_via_trees),
        ack_deadline(latency_bound),
        num(n, 0.0),
        den(n, 0.0),
        pending(n),
        next_seq(n, 0),
        root_index(n, 0),
        push_rounds(static_cast<std::uint32_t>(cfg.rounds_multiplier *
                                               static_cast<double>(ceil_log2(n)) *
                                               cfg.round_budget_scale) +
                    cfg.extra_rounds),
        pair_bits(2 * 64 + address_bits(n)) {
    const auto& roots = f.roots();
    for (std::uint32_t i = 0; i < roots.size(); ++i) root_index[roots[i]] = i;
    for (NodeId r : roots) {
      num[r] = num0[r];
      den[r] = den0[r];
    }
    if constexpr (kTrack) {
      // y_{0,i} = e_i over the m roots.
      Y.assign(roots.size(), std::vector<double>(roots.size(), 0.0));
      for (std::uint32_t i = 0; i < roots.size(); ++i) Y[i][i] = 1.0;
    }
  }

  /// A sent half held until the first receiver's ack.  The re-absorption
  /// deadline is latency-aware: a half sent at round S arrives at the
  /// latest in round S + bound (the model's maximum delay) and its ack
  /// rides the reliable reply path of that same round, so no ack by the
  /// end of round S + bound means the call was lost (crashed target, loss
  /// coin, partition cut) and the mass is re-absorbed -- restoring the
  /// conservation law sum(num), sum(den) that the push-sum limit relies
  /// on, without double-counting halves that were merely delayed.
  struct Outstanding {
    std::uint32_t seq = 0;
    std::uint32_t sent_round = 0;
    double num = 0.0;
    double den = 0.0;
    [[no_unique_address]] std::conditional_t<kTrack, std::vector<double>, NoPayload> y{};
  };

  const Forest& forest;
  bool forward;
  bool relay;  // explicit topology: leave the tree via a random member
  std::uint32_t ack_deadline;  // latency bound; 0 = same-round resolution
  std::vector<double> num;
  std::vector<double> den;
  std::vector<std::vector<Outstanding>> pending;  // per-root outstanding halves
  std::vector<std::uint32_t> next_seq;
  std::vector<std::uint32_t> root_index;
  std::vector<std::vector<double>> Y;  // contribution rows, root-index order
  std::uint32_t push_rounds;
  std::uint32_t pair_bits;

  /// Only roots push mass or hold pending halves; the engine thins its
  /// per-round upcall scans to the (ascending) root list.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return forest.roots();
  }

  void on_round(sim::Network<Msg>& net, sim::NodeId v) {
    if (net.round() >= push_rounds) return;
    // Keep half, send half (computed before any of this round's receipts).
    num[v] *= 0.5;
    den[v] *= 0.5;
    Msg m{num[v], den[v], next_seq[v]++, /*first_hop=*/true, Msg::Kind::kMass, {}};
    if constexpr (kTrack) {
      auto& row = Y[root_index[v]];
      for (double& yj : row) yj *= 0.5;
      m.y = row;
    }
    if constexpr (kTrack) {
      pending[v].push_back(Outstanding{m.seq, net.round(), m.num, m.den, m.y});
    } else {
      pending[v].push_back(Outstanding{m.seq, net.round(), m.num, m.den, {}});
    }
    if (relay) {
      const auto members = forest.tree_members(v);
      const auto carrier = static_cast<sim::NodeId>(
          members[net.node_rng(v).next_below(members.size())]);
      if (carrier != v) {
        m.kind = Msg::Kind::kRelayMass;
        net.send(v, carrier, std::move(m), pair_bits);
        return;
      }
    }
    sim::NodeId target = net.sample_peer(v);
    if (!forward && forest.is_member(target)) {
      // Analysis mode: the G~ edge collapses to one direct hop, with the
      // selection probability still proportional to tree size.
      target = forest.root_of(target);
    }
    net.send(v, target, std::move(m), pair_bits);
  }

  void on_message(sim::Network<Msg>& net, sim::NodeId src, sim::NodeId dst, const Msg& m) {
    if (m.kind == Msg::Kind::kAck) return;  // acks ride the reply path
    if (!forest.is_member(dst)) {
      // A mid-run joiner outside the forest overlay cannot forward the
      // share (it has no root).  Crucially it must not ack either: the
      // sender's recovery deadline then re-absorbs the half, so no mass
      // leaks into bystanders.
      return;
    }
    if (m.first_hop) {
      // Acknowledge on the established call: the sender now knows its
      // half arrived (replies are reliable in the §2 model).
      net.reply(dst, src, Msg{0.0, 0.0, m.seq, false, Msg::Kind::kAck, {}}, 1);
    }
    if (m.kind == Msg::Kind::kRelayMass) {
      // Relay hop: this member samples *its* substrate neighbor.
      Msg fwd = m;
      fwd.first_hop = false;
      fwd.kind = Msg::Kind::kMass;
      const sim::NodeId target = net.sample_peer(dst);
      net.send(dst, target, std::move(fwd), pair_bits);
      return;
    }
    // root_of(v) == v iff v is a member root: one load on the hot path.
    const sim::NodeId root = forest.root_of(dst);
    if (root != dst) {
      Msg fwd = m;
      fwd.first_hop = false;
      net.send(dst, root, std::move(fwd), pair_bits);
      return;
    }
    num[dst] += m.num;
    den[dst] += m.den;
    if constexpr (kTrack) {
      if (!m.y.empty()) {
        auto& row = Y[root_index[dst]];
        for (std::size_t j = 0; j < row.size(); ++j) row[j] += m.y[j];
      }
    }
  }

  void on_reply(sim::Network<Msg>&, sim::NodeId, sim::NodeId dst, const Msg& m) {
    if (m.kind != Msg::Kind::kAck) return;
    auto& q = pending[dst];
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].seq == m.seq) {
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));  // stable: FP order
        break;
      }
    }
  }

  void on_round_end(sim::Network<Msg>& net, sim::NodeId v) {
    if (pending[v].empty()) return;
    // Every half whose latest possible ack round has passed was lost:
    // re-absorb it so no (num, den) mass leaves the system.  Halves still
    // inside the latency window stay parked.
    auto& q = pending[v];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].sent_round + ack_deadline <= net.round()) {
        num[v] += q[i].num;
        den[v] += q[i].den;
        if constexpr (kTrack) {
          if (!q[i].y.empty()) {
            auto& row = Y[root_index[v]];
            for (std::size_t j = 0; j < row.size(); ++j) row[j] += q[i].y[j];
          }
        }
      } else {
        if (keep != i) q[keep] = std::move(q[i]);
        ++keep;
      }
    }
    q.resize(keep);
  }

  /// Phi_t of Lemma 8 over the current contribution rows.
  [[nodiscard]] double potential() const {
    const auto m = static_cast<double>(Y.size());
    double phi = 0.0;
    for (const auto& row : Y) {
      double w = 0.0;
      for (double yj : row) w += yj;
      const double target = w / m;
      for (double yj : row) {
        const double d = yj - target;
        phi += d * d;
      }
    }
    return phi;
  }
};

template <bool kTrack>
PushSumResult run_push_sum_impl(const Forest& forest, std::span<const double> num0,
                                std::span<const double> den0, const RngFactory& rngs,
                                const sim::Scenario& scenario,
                                const PushSumConfig& config) {
  const std::uint32_t n = forest.size();
  sim::Network<PsMsg<kTrack>> net{n, rngs, scenario, derive_seed(0xa4e, config.stream_tag)};
  PushSumProtocol<kTrack> proto{forest, num0, den0, config, n,
                                config.member_relay && !scenario.topology.is_complete(),
                                scenario.faults.latency.bound()};

  PushSumResult result;
  const NodeId z = forest.largest_tree_root();
  // The forwarding drain flushes the G~ relay chain (up to three hops);
  // under event-time latency every hop can additionally sit in flight for
  // the model's bound, so the drain stretches accordingly (exactly 3 for
  // the zero model -- the historical schedule).
  const std::uint32_t drain =
      config.forward_via_trees ? 3 * (1 + scenario.faults.latency.bound()) : 0;
  for (std::uint32_t r = 0; r < proto.push_rounds + drain; ++r) {
    net.step(proto);
    if constexpr (kTrack) {
      result.potential_per_round.push_back(proto.potential());
      result.z_estimate_per_round.push_back(
          proto.den[z] > 0.0 ? proto.num[z] / proto.den[z] : 0.0);
    }
  }

  result.num = std::move(proto.num);
  result.den = std::move(proto.den);
  result.estimate.assign(n, 0.0);
  for (NodeId r : forest.roots())
    if (result.den[r] > 0.0) result.estimate[r] = result.num[r] / result.den[r];
  result.counters = net.counters();
  result.rounds = proto.push_rounds + drain;
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
  PushSumProtocol<false> proto{forest, num0, den0, config, n, relay,
                               /*latency_bound=*/0};  // flat = fault-free
  struct Mass {
    double num;
    double den;
  };
  detail::RootRelay<Mass> driver{forest, rngs, scenario,
                                 derive_seed(0xa4e, config.stream_tag), relay};
  double* num = proto.num.data();
  double* den = proto.den.data();
  const std::uint32_t drain = 3;  // forward_via_trees
  for (std::uint32_t r = 0; r < proto.push_rounds + drain; ++r) {
    if (r < proto.push_rounds) {
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

  const std::uint64_t acks =
      static_cast<std::uint64_t>(forest.roots().size()) * proto.push_rounds;
  PushSumResult result;
  result.num = std::move(proto.num);
  result.den = std::move(proto.den);
  result.estimate.assign(n, 0.0);
  for (NodeId v : forest.roots())
    if (result.den[v] > 0.0) result.estimate[v] = result.num[v] / result.den[v];
  result.counters.sent = driver.sent() + acks;
  result.counters.delivered = driver.delivered() + acks;
  result.counters.bits = driver.sent() * proto.pair_bits + acks;
  result.counters.rounds = proto.push_rounds + drain;
  result.rounds = proto.push_rounds + drain;
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
