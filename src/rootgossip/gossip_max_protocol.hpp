#pragma once
// Gossip-max (Algorithm 4) and Data-spread (Algorithm 5), generic in the
// diffused key.
//
// One copy of the protocol serves every caller: run_gossip_max diffuses
// ordered 64-bit keys under max, extrema propagation diffuses k-vectors
// of exponentials under componentwise min.  `merge(into, from)` absorbs a
// received key into a root's own; every message carries one Key and is
// charged `key_bits`.
//
// run_gossip_max_of takes the flat RootRelay driver when the scenario is
// fault-free and the generic sim::Network path otherwise; the two are
// byte-identical (pinned by the golden determinism tests).  Private to
// the library: include it from .cpp files only.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/root_relay.hpp"
#include "sim/counters.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace drrg::detail {

template <class Key>
struct GmMsg {
  enum class Kind : std::uint8_t { kGossip, kInquiry, kInquiryReply };
  // Field order keeps the 64-bit-key struct at 16 bytes (24-byte queue
  // envelopes): the queues are the engine's hottest memory traffic.
  Key key{};
  sim::NodeId origin = sim::kNoNode;  // inquiring root (kInquiry)
  Kind kind = Kind::kGossip;
  // First hop of the member relay on explicit topologies: the root hands
  // its call to a uniform random member of its own tree, which then
  // samples *its* substrate neighbor.  This makes the G~ overlay inherit
  // the tree-adjacency connectivity of the substrate (connected whenever
  // G is); sampling only the root node's own 2-4 neighbors strands keys
  // in enclosed trees, the historical grid consensus = 0 failure.
  bool carried = false;
};

template <class Key, class Merge>
struct GossipMaxProtocol {
  using Msg = GmMsg<Key>;

  GossipMaxProtocol(const Forest& f, std::vector<Key> init, Merge m,
                    const GossipMaxConfig& cfg, std::uint32_t bits, bool relay_members)
      : forest(f),
        merge(std::move(m)),
        relay(relay_members),
        key(std::move(init)),
        key_bits(bits),
        gossip_rounds(static_cast<std::uint32_t>(cfg.gossip_multiplier *
                                                 static_cast<double>(ceil_log2(f.size())) *
                                                 cfg.round_budget_scale)),
        sampling_rounds(static_cast<std::uint32_t>(cfg.sampling_multiplier *
                                                   static_cast<double>(ceil_log2(f.size())) *
                                                   cfg.round_budget_scale)),
        drain(cfg.drain_rounds) {}

  const Forest& forest;
  Merge merge;
  bool relay;  // explicit topology: leave the tree via a random member
  std::vector<Key> key;
  std::uint32_t key_bits;
  std::uint32_t gossip_rounds;
  std::uint32_t sampling_rounds;
  std::uint32_t drain;

  /// Only roots act in Algorithm 4/5; the engine thins its upcall scans
  /// to the (ascending) root list.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return forest.roots();
  }

  /// The gossip procedure plus its drain; the sampling procedure follows.
  [[nodiscard]] std::uint32_t gossip_phase_rounds() const { return gossip_rounds + drain; }
  [[nodiscard]] std::uint32_t total_rounds() const {
    return gossip_rounds + drain + sampling_rounds + drain;
  }
  [[nodiscard]] bool in_gossip(std::uint32_t r) const { return r < gossip_rounds; }
  [[nodiscard]] bool in_sampling(std::uint32_t r) const {
    return r >= gossip_rounds + drain && r < gossip_rounds + drain + sampling_rounds;
  }

  /// Root v's call in round r: its key in the gossip procedure, an
  /// inquiry carrying its address in the sampling procedure.
  [[nodiscard]] Msg call_of(sim::NodeId v, bool gossip) const {
    return gossip ? Msg{key[v], sim::kNoNode, Msg::Kind::kGossip}
                  : Msg{Key{}, v, Msg::Kind::kInquiry};
  }

  /// A call reached root v; `send(dst, msg)` replies to an inquiry
  /// directly (its origin's address travelled in the message): one hop.
  template <class Send>
  void at_root(sim::NodeId v, const Msg& m, Send&& send) {
    if (m.kind == Msg::Kind::kInquiry) {
      send(m.origin, Msg{key[v], sim::kNoNode, Msg::Kind::kInquiryReply});
    } else {
      merge(key[v], m.key);
    }
  }

  void on_round(sim::Network<Msg>& net, sim::NodeId v) {
    const std::uint32_t r = net.round();
    const bool gossip = in_gossip(r);
    if (!gossip && !in_sampling(r)) return;
    Msg m = call_of(v, gossip);
    if (relay) {
      const auto members = forest.tree_members(v);
      const auto carrier = static_cast<sim::NodeId>(
          members[net.node_rng(v).next_below(members.size())]);
      if (carrier != v) {
        m.carried = true;
        net.send(v, carrier, std::move(m), key_bits);
        return;
      }
    }
    net.send(v, net.sample_peer(v), std::move(m), key_bits);
  }

  void on_message(sim::Network<Msg>& net, sim::NodeId, sim::NodeId dst, const Msg& m) {
    if (m.carried) {
      // Relay hop: this member samples *its* neighbor on the substrate.
      Msg fwd = m;
      fwd.carried = false;
      net.send(dst, net.sample_peer(dst), std::move(fwd), key_bits);
      return;
    }
    // A mid-run joiner that arrived after the forest was fixed is alive
    // but outside the overlay: it has no root to forward to, so the call
    // dies here exactly like a call to a crashed address.
    if (!forest.is_member(dst)) return;
    // root_of(v) == v iff v is a member root: one load replaces the
    // member/parent double lookup on the hottest delivery path.
    const sim::NodeId root = forest.root_of(dst);
    if (root != dst) {
      // Forward to this node's root: the address learned in Phase II.
      // One extra round and message -- the second hop of the G~ edge.
      net.send(dst, root, m, key_bits);
      return;
    }
    at_root(dst, m, [&](sim::NodeId to, Msg reply) {
      net.send(dst, to, std::move(reply), key_bits);
    });
  }
};

template <class Key>
struct GossipMaxRun {
  std::vector<Key> key;
  /// Snapshot when the gossip procedure (plus drain) ended.
  std::vector<Key> key_after_gossip;
  sim::Counters counters;
  std::uint32_t rounds = 0;
};

/// Runs Gossip-max over the roots of `forest`: `init[r]` is root r's key
/// (non-root entries are carried along untouched), `merge(into, from)`
/// absorbs a received key.  `purpose` namespaces the per-node streams.
template <class Key, class Merge>
GossipMaxRun<Key> run_gossip_max_of(const Forest& forest, std::vector<Key> init,
                                    Merge merge, std::uint32_t key_bits,
                                    const RngFactory& rngs, const sim::Scenario& scenario,
                                    const GossipMaxConfig& config, std::uint64_t purpose) {
  using Proto = GossipMaxProtocol<Key, Merge>;
  const bool relay = config.member_relay && !scenario.topology.is_complete();
  Proto proto{forest, std::move(init), std::move(merge), config, key_bits, relay};

  GossipMaxRun<Key> out;
  out.rounds = proto.total_rounds();
  // The gossip procedure (plus drain), the Theorem 5 snapshot, then the
  // sampling procedure (plus drain).
  auto drive = [&](auto&& step) {
    std::uint32_t r = 0;
    for (; r < proto.gossip_phase_rounds(); ++r) step(r);
    out.key_after_gossip = proto.key;
    for (; r < proto.total_rounds(); ++r) step(r);
  };
  if (scenario.faults.fault_free()) {
    RootRelay<typename Proto::Msg> driver{forest, rngs, scenario, purpose, relay};
    drive([&](std::uint32_t r) {
      const bool gossip = proto.in_gossip(r);
      if (gossip || proto.in_sampling(r))
        driver.initiate([&](NodeId v) { return proto.call_of(v, gossip); });
      driver.deliver([&](NodeId v, const auto& m, auto& send) { proto.at_root(v, m, send); });
    });
    out.counters.sent = driver.sent();
    out.counters.delivered = driver.delivered();
    out.counters.bits = driver.sent() * key_bits;
    out.counters.rounds = out.rounds;
  } else {
    sim::Network<typename Proto::Msg> net{forest.size(), rngs, scenario, purpose};
    drive([&](std::uint32_t) { net.step(proto); });
    out.counters = net.counters();
  }
  out.key = std::move(proto.key);
  return out;
}

}  // namespace drrg::detail
