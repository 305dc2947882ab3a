#pragma once
// Gossip-max (Algorithm 4) and Data-spread (Algorithm 5), generic in the
// diffused key and in the carrier.
//
// One copy of the protocol serves every caller: run_gossip_max diffuses
// ordered 64-bit keys under max, extrema propagation diffuses k-vectors
// of exponentials under componentwise min, and the routed pipelines'
// fused elect-and-spread diffuses (size key, estimate) pairs that merge
// by key.  `merge(into, from)` absorbs a received key into a root's own;
// every message carries one Key and is charged `key_bits`.
//
// The Carrier (rootgossip/carrier.hpp) decides how a call reaches a root:
// TreeCarrier for the dense pipelines, RoutedCarrier for the §4 routed
// ones.  The run functions own the schedules: run_gossip_max_of below
// runs fixed rounds (taking the flat RootRelay driver when the scenario
// is fault-free and sim::Network otherwise; the two are byte-identical,
// pinned by the golden determinism tests), the routed pipeline drains to
// quiescence (aggregate/sparse.cpp).  Private to the library: include it
// from .cpp files only.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "rootgossip/carrier.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/root_relay.hpp"
#include "sim/counters.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace drrg::detail {

template <class Key, class Leg>
struct GmMsg {
  enum class Kind : std::uint8_t { kGossip, kInquiry, kInquiryReply };
  Key key{};
  sim::NodeId origin = sim::kNoNode;  // inquiring root (kInquiry)
  Kind kind = Kind::kGossip;
  Leg leg{};  // the carrier's per-hop state
};
// Field order keeps the 64-bit-key dense message at 16 bytes (24-byte
// queue envelopes): the queues are the engine's hottest memory traffic.
static_assert(sizeof(GmMsg<std::uint64_t, TreeCarrier::Leg>) == 16);

template <class Key, class Merge, class Carrier>
struct GossipMaxProtocol {
  using Msg = GmMsg<Key, typename Carrier::Leg>;
  enum class Procedure : std::uint8_t { kIdle, kGossip, kSampling };

  GossipMaxProtocol(Carrier c, std::vector<Key> init, Merge m, std::uint32_t bits)
      : carrier(std::move(c)), merge(std::move(m)), key(std::move(init)), key_bits(bits) {}

  Carrier carrier;
  Merge merge;
  std::vector<Key> key;
  std::uint32_t key_bits;
  /// Set by the run function: roots call only inside a procedure, and a
  /// drain runs with the procedure off.
  Procedure procedure = Procedure::kIdle;

  /// Only roots act in Algorithm 4/5; the engine thins its upcall scans
  /// to the (ascending) root list.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return carrier.forest.roots();
  }

  /// Root v's call: its key in the gossip procedure, an inquiry carrying
  /// its address in the sampling procedure.
  [[nodiscard]] Msg call_of(sim::NodeId v) const {
    return procedure == Procedure::kGossip ? Msg{key[v], sim::kNoNode, Msg::Kind::kGossip}
                                           : Msg{Key{}, v, Msg::Kind::kInquiry};
  }

  /// A call reached root v; `reply(origin, msg)` answers an inquiry.
  template <class Reply>
  void at_root(sim::NodeId v, const Msg& m, Reply&& reply) {
    if (m.kind == Msg::Kind::kInquiry) {
      reply(m.origin, Msg{key[v], sim::kNoNode, Msg::Kind::kInquiryReply});
    } else {
      merge(key[v], m.key);
    }
  }

  void on_round(sim::Network<Msg>& net, sim::NodeId v) {
    if (procedure == Procedure::kIdle) return;
    carrier.launch(net, v, call_of(v), key_bits, landing(net));
  }

  void on_message(sim::Network<Msg>& net, sim::NodeId, sim::NodeId dst, const Msg& m) {
    carrier.deliver(net, dst, m, key_bits, landing(net));
  }

 private:
  /// What a call does at the root it reached, answering through the carrier.
  auto landing(sim::Network<Msg>& net) {
    return [this, &net](sim::NodeId at, const Msg& m) {
      at_root(at, m, [&](sim::NodeId origin, Msg reply) {
        carrier.answer(net, at, origin, std::move(reply), key_bits);
      });
    };
  }
};

/// Runs Gossip-max over the roots of `forest` on the dense carrier:
/// `init[r]` is root r's key (non-root entries are carried along
/// untouched), `merge(into, from)` absorbs a received key.  `purpose`
/// namespaces the per-node streams.
template <class Key, class Merge>
GossipMaxRun<Key> run_gossip_max_of(const Forest& forest, std::vector<Key> init,
                                    Merge merge, std::uint32_t key_bits,
                                    const RngFactory& rngs, const sim::Scenario& scenario,
                                    const GossipMaxConfig& config, std::uint64_t purpose) {
  using Proto = GossipMaxProtocol<Key, Merge, TreeCarrier>;
  using Procedure = typename Proto::Procedure;
  const bool relay = config.member_relay && !scenario.topology.is_complete();
  Proto proto{TreeCarrier{forest, relay}, std::move(init), std::move(merge), key_bits};
  const std::uint32_t n = forest.size();
  const std::uint32_t gossip = log_rounds(config.gossip_multiplier, n, config.round_budget_scale);
  const std::uint32_t sampling =
      log_rounds(config.sampling_multiplier, n, config.round_budget_scale);
  const std::uint32_t drain = config.drain_rounds;

  GossipMaxRun<Key> out;
  out.rounds = gossip + drain + sampling + drain;
  // The gossip procedure (plus drain), the Theorem 5 snapshot, then the
  // sampling procedure (plus drain).
  auto drive = [&](auto&& step) {
    auto run = [&](Procedure p, std::uint32_t rounds) {
      proto.procedure = p;
      for (std::uint32_t r = 0; r < rounds; ++r) step();
    };
    run(Procedure::kGossip, gossip);
    run(Procedure::kIdle, drain);
    out.key_after_gossip = proto.key;
    run(Procedure::kSampling, sampling);
    run(Procedure::kIdle, drain);
  };
  if (scenario.faults.fault_free()) {
    RootRelay<typename Proto::Msg> driver{forest, rngs, scenario, purpose, relay};
    drive([&] {
      if (proto.procedure != Procedure::kIdle)
        driver.initiate([&](NodeId v) { return proto.call_of(v); });
      driver.deliver([&](NodeId v, const auto& m, auto& send) { proto.at_root(v, m, send); });
    });
    out.counters.sent = driver.sent();
    out.counters.delivered = driver.delivered();
    out.counters.bits = driver.sent() * key_bits;
    out.counters.rounds = out.rounds;
  } else {
    sim::Network<typename Proto::Msg> net{forest.size(), rngs, scenario, purpose};
    drive([&] { net.step(proto); });
    out.counters = net.counters();
  }
  out.key = std::move(proto.key);
  return out;
}

}  // namespace drrg::detail
