#pragma once
// How a Phase III call reaches a root: the carrier policy of the root
// gossip protocols (GossipMaxProtocol, PushSumProtocol).
//
// Both protocols send one call per root per active round over an edge of
// the virtual clique G~ = clique(V~).  What differs between the dense and
// the routed pipelines is only how that edge is carried, so the protocols
// take the carrier as a template parameter (no per-hop runtime branch):
//
//   * TreeCarrier (here): a direct send to a sampled node -- on explicit
//     topologies first relayed through a uniform random member of the
//     root's own tree -- then one forward to that node's root, the
//     address learned in Phase II;
//   * RoutedCarrier (aggregate/routed_carrier.hpp): SparseRouter hops of
//     the §4 substrate, then a climb parent by parent.
//
// A carrier exposes the same verbs to both protocols:
//
//   launch(net, v, msg, bits, at_root)  -- root v starts a call;
//   deliver(net, dst, msg, bits, at_root) -- one hop landed at dst: carry
//                                        it on, or hand it to at_root(r, msg)
//                                        at the root r it reached;
//   answer(net, at, origin, msg, bits)  -- reply to an inquiring root.
//
// Push-sum's (num, den) halves are mass, not idempotent state, so it calls
// the overloads that also take a Custody ledger: each carrier decides what
// it parks and how it recovers a lost hop (TreeCarrier: the first-hop ack
// with sender re-absorb; RoutedCarrier: the optional per-hop carry-ack with
// resume and stranded re-home).  Private to the library: include it from
// .cpp files only.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "sim/engine.hpp"

namespace drrg::detail {

/// Messages parked by a carrier until the next hop acknowledges them, per
/// holder.  The parked copy is the message as it was sent (for a routed
/// hop: with the pre-hop route state, so a retransmit resumes there).
template <class Msg>
struct Custody {
  struct Parked {
    Msg msg;
    std::uint32_t sent_round = 0;
    bool stranded = false;  ///< routed: no viable hop existed at the holder
  };

  Custody() = default;
  explicit Custody(std::uint32_t n) : held(n), next_seq(n, 0) {}

  std::vector<std::vector<Parked>> held;
  std::vector<std::uint32_t> next_seq;  ///< holder-local sequence numbers
  std::uint64_t total = 0;              ///< parked anywhere (routed drains on it)
};

/// The dense pipelines' carrier: the two-hop G~ edge of §3.
struct TreeCarrier {
  struct Leg {
    /// First hop to a relay member of the root's tree, which then samples
    /// *its* substrate neighbor.  This makes the G~ overlay inherit the
    /// tree-adjacency connectivity of the substrate (connected whenever G
    /// is); sampling only the root node's own 2-4 neighbors strands keys
    /// in enclosed trees, the historical grid consensus = 0 failure.
    bool relay = false;
    /// The initiating hop from the sending root; under custody its first
    /// receiver acknowledges it so the sender can detect a lost call.
    bool first_hop = false;
  };
  static constexpr std::uint32_t kAckBits = 1;

  const Forest& forest;
  bool relay;           ///< explicit topology: leave the tree via a random member
  bool direct = false;  ///< analysis mode: land on the sampled node's root at once
  /// Custody: the latency bound.  A half sent at round S arrives at the
  /// latest in round S + bound and its ack rides the reliable reply path of
  /// that same round, so no ack by the end of round S + bound means the
  /// call was lost (crashed target, loss coin, partition cut): re-absorbing
  /// it then restores conservation without double-counting a half that
  /// was merely delayed.
  std::uint32_t ack_deadline = 0;

  /// Only roots act; the engine thins its upcall scans to the root list.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return forest.roots();
  }
  [[nodiscard]] static constexpr bool initiates(sim::NodeId) noexcept { return true; }

  template <class Msg, class AtRoot>
  void launch(sim::Network<Msg>& net, sim::NodeId v, Msg m, std::uint32_t bits, AtRoot&&) {
    if (relay) {
      const auto members = forest.tree_members(v);
      const auto carrier = static_cast<sim::NodeId>(
          members[net.node_rng(v).next_below(members.size())]);
      if (carrier != v) {
        m.leg.relay = true;
        net.send(v, carrier, std::move(m), bits);
        return;
      }
    }
    sim::NodeId target = net.sample_peer(v);
    // Analysis mode: the G~ edge collapses to one direct hop, with the
    // selection probability still proportional to tree size.
    if (direct && forest.is_member(target)) target = forest.root_of(target);
    net.send(v, target, std::move(m), bits);
  }

  template <class Msg, class AtRoot>
  void deliver(sim::Network<Msg>& net, sim::NodeId dst, const Msg& m, std::uint32_t bits,
               AtRoot&& at_root) {
    sim::NodeId next;
    if (m.leg.relay) {
      // Relay hop: this member samples *its* neighbor on the substrate.
      next = net.sample_peer(dst);
    } else {
      // A mid-run joiner that arrived after the forest was fixed is alive
      // but outside the overlay: it has no root to forward to, so the call
      // dies here exactly like a call to a crashed address.
      if (!forest.is_member(dst)) return;
      // root_of(v) == v iff v is a member root: one load replaces the
      // member/parent double lookup on the hottest delivery path.
      next = forest.root_of(dst);
      if (next == dst) {
        at_root(dst, m);
        return;
      }
      // Otherwise forward to this node's root, the address learned in
      // Phase II: one extra round and message, the second hop of the G~
      // edge.
    }
    Msg fwd = m;
    fwd.leg = {};
    net.send(dst, next, std::move(fwd), bits);
  }

  /// The inquired root replies directly (the origin's address travelled
  /// in the inquiry): one hop, the non-address-oblivious step.
  template <class Msg>
  void answer(sim::Network<Msg>& net, sim::NodeId at, sim::NodeId origin, Msg reply,
              std::uint32_t bits) {
    net.send(at, origin, std::move(reply), bits);
  }

  // --- custody: the first-hop ack --------------------------------------
  //
  // The first receiver of every launched half acks it on the established
  // call; a half whose ack has not come back by its deadline is
  // re-absorbed by its sender.  Forward-hop losses stay unrecovered.

  template <class Msg, class Absorb>
  void launch(sim::Network<Msg>& net, sim::NodeId v, Msg m, std::uint32_t bits,
              Custody<Msg>& custody, Absorb&& absorb) {
    m.seq = custody.next_seq[v]++;
    m.leg.first_hop = true;
    custody.held[v].push_back({m, net.round()});
    launch(net, v, std::move(m), bits, absorb);
  }

  template <class Msg, class Absorb>
  void deliver(sim::Network<Msg>& net, sim::NodeId src, sim::NodeId dst, const Msg& m,
               std::uint32_t bits, Custody<Msg>&, Absorb&& absorb) {
    // A non-member must not ack: the sender's deadline then re-absorbs the
    // half, so no mass leaks into bystanders.
    if (m.leg.first_hop && forest.is_member(dst)) {
      Msg ack{};
      ack.seq = m.seq;
      net.reply(dst, src, std::move(ack), kAckBits);
    }
    deliver(net, dst, m, bits, absorb);
  }

  template <class Msg>
  void acked(sim::NodeId v, std::uint32_t seq, Custody<Msg>& custody) {
    auto& q = custody.held[v];
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].msg.seq == seq) {
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));  // stable: FP order
        return;
      }
    }
  }

  /// Re-absorbs every half of v's whose ack deadline has passed; halves
  /// still inside the latency window stay parked.
  template <class Msg, class Absorb>
  void reclaim(sim::Network<Msg>& net, sim::NodeId v, std::uint32_t, Custody<Msg>& custody,
               Absorb&& absorb) {
    auto& q = custody.held[v];
    if (q.empty()) return;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].sent_round + ack_deadline <= net.round()) {
        absorb(v, q[i].msg);
      } else {
        if (keep != i) q[keep] = std::move(q[i]);
        ++keep;
      }
    }
    q.resize(keep);
  }
};

}  // namespace drrg::detail
