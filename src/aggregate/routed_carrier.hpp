#pragma once
// The §4 routed pipelines' Phase III carrier (see rootgossip/carrier.hpp
// for the carrier verbs the root gossip protocols call).
//
// A logical G~ send travels as one engine envelope that is re-sent hop by
// hop: first along the substrate route (the SparseRouter state machine,
// the message's Leg), then up the landing node's ranking tree parent by
// parent.  Each hop is one engine message in one round, so the
// FaultSchedule applies to every intermediate carrier and a delivery's
// latency equals its hop count -- the accounting the paper's "at most T
// hops of G per edge of G~" uses.  Private to the library: include it
// from .cpp files only.

#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "aggregate/routing.hpp"
#include "forest/forest.hpp"
#include "rootgossip/carrier.hpp"
#include "sim/engine.hpp"

namespace drrg::detail {

class RoutedCarrier {
 public:
  /// The route state; kDone means the route has arrived and the message
  /// climbs the landing node's tree.
  using Leg = RouteState;
  static constexpr std::uint32_t kAckBits = 32;  // custody id on the open call

  /// `crash_free` (FaultSchedule::crash_free()) selects the devirtualized
  /// fast hop: with every node alive for the whole run the stabilized
  /// detours are identities.  `armed` turns on the per-hop custody
  /// (PushSumConfig::hop_carry_ack) for the overloads that take a ledger.
  RoutedCarrier(const Forest& f, const SparseRouter& r, bool crash_free, bool armed = false,
                std::uint32_t latency_bound = 0)
      : forest(f),
        router_(r),
        crash_free_(crash_free),
        armed_(armed),
        reclaim_after_(2 + latency_bound),
        all_ids_(armed ? f.size() : 0) {
    std::iota(all_ids_.begin(), all_ids_.end(), sim::NodeId{0});
  }

  const Forest& forest;

  /// Rounds before an unacked custody slot is retransmitted.
  [[nodiscard]] std::uint32_t reclaim_after() const noexcept { return reclaim_after_; }

  /// Roots only, or every node when armed (any carrier may hold custody).
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return armed_ ? std::span<const sim::NodeId>{all_ids_} : forest.roots();
  }
  /// Whether active node v is a root that starts calls.
  [[nodiscard]] bool initiates(sim::NodeId v) const noexcept {
    return !armed_ || forest.is_root(v);
  }

  /// Root v starts a call along an Assumption-2 near-uniform route.
  template <class Msg, class AtRoot>
  void launch(sim::Network<Msg>& net, sim::NodeId v, Msg m, std::uint32_t bits,
              AtRoot&& at_root) {
    m.leg = router_.begin_random(v, net.node_rng(v));
    if (advance(net, v, m, bits) == Hop::kAtRoot) at_root(v, m);
  }

  /// A hop landed at dst.  A stranded message dies at the holder.
  template <class Msg, class AtRoot>
  void deliver(sim::Network<Msg>& net, sim::NodeId dst, const Msg& m, std::uint32_t bits,
               AtRoot&& at_root) {
    Msg fwd = m;
    if (advance(net, dst, fwd, bits) == Hop::kAtRoot) at_root(dst, fwd);
  }

  /// Replies to the inquiring root: routed where the substrate has a
  /// keyed scheme, one direct send otherwise (the established-call
  /// convention -- the non-address-oblivious step of Algorithm 4).  A
  /// reply that lands back on `at` itself is a self-merge and is dropped.
  template <class Msg>
  void answer(sim::Network<Msg>& net, sim::NodeId at, sim::NodeId origin, Msg reply,
              std::uint32_t bits) {
    reply.leg = router_.begin_directed(origin);
    if (reply.leg.mode == RouteState::Mode::kDone) {
      if (at != origin) net.send(at, origin, std::move(reply), bits);
      return;
    }
    (void)advance(net, at, reply, bits);
  }

  // --- custody: the optional per-hop carry-ack ---------------------------
  //
  // Unarmed, a half whose next carrier crashed -- or whose hop the loss
  // coin ate -- vanishes, and push-sum's conservation law (sum num, sum
  // den invariant) erodes by O(loss) per hop.  Armed, every hop is a
  // custody transfer: the holder parks the half until the receiver acks
  // custody on the established call (reliable, same round as the
  // delivery).  A slot that outlives its ack window -- the hop was lost or
  // the carrier died mid-flight -- is retransmitted from the stored
  // pre-hop route state: the holder recomputes the same hop against
  // *current* liveness (ARQ with route progress kept; a freshly dead next
  // carrier turns into a detour, not a restart).  Only a half stranded at
  // the holder itself re-homes on a fresh random route -- its old route is
  // a proven dead end.  Restarting every lost hop from scratch would make
  // long routes statistically un-completable (success (1-loss)^hops per
  // attempt); resuming keeps the expected cost at
  // hops * (1 + loss/(1-loss) * reclaim_after) rounds.  Mass held by a
  // node that itself crashes dies with it (that is physical); everything
  // else is conserved.
  //
  // No double-count: an ack rides the reply step of the delivery round,
  // which is at most sent_round + 1 + latency_bound; reclaim fires at
  // on_round_end of sent_round + 2 + latency_bound, strictly after any
  // possible ack has been drained.  Unarmed runs keep the roots-only
  // upcall set and never touch the ledger.

  template <class Msg, class Absorb>
  void launch(sim::Network<Msg>& net, sim::NodeId v, Msg m, std::uint32_t bits,
              Custody<Msg>& custody, Absorb&& absorb) {
    if (!armed_) return launch(net, v, std::move(m), bits, absorb);
    m.leg = router_.begin_random(v, net.node_rng(v));
    carry(net, v, std::move(m), bits, custody, absorb);
  }

  template <class Msg, class Absorb>
  void deliver(sim::Network<Msg>& net, sim::NodeId src, sim::NodeId dst, const Msg& m,
               std::uint32_t bits, Custody<Msg>& custody, Absorb&& absorb) {
    if (!armed_) return deliver(net, dst, m, bits, absorb);
    Msg ack{};
    ack.seq = m.seq;
    net.reply(dst, src, std::move(ack), kAckBits);
    carry(net, dst, Msg{m}, bits, custody, absorb);
  }

  /// Custody of `seq` passed downstream.
  template <class Msg>
  void acked(sim::NodeId v, std::uint32_t seq, Custody<Msg>& custody) {
    auto& held = custody.held[v];
    for (std::size_t i = 0; i < held.size(); ++i) {
      if (held[i].msg.seq == seq) {
        held[i] = held.back();
        held.pop_back();
        --custody.total;
        return;
      }
    }
  }

  /// Retransmits every slot of v's whose ack window has lapsed.
  template <class Msg, class Absorb>
  void reclaim(sim::Network<Msg>& net, sim::NodeId v, std::uint32_t bits,
               Custody<Msg>& custody, Absorb&& absorb) {
    if (!armed_ || custody.held[v].empty()) return;
    auto& held = custody.held[v];
    for (std::size_t i = 0; i < held.size();) {
      if (net.round() < held[i].sent_round + reclaim_after_) {
        ++i;
        continue;
      }
      auto p = held[i];  // take it out, then resend (carry() appends)
      held[i] = held.back();
      held.pop_back();
      --custody.total;
      // Stranded: the stored route dead-ended at v itself, and only a
      // fresh route (new target, full TTL) can make progress.  Otherwise
      // resume from the pre-hop state, so route progress survives and the
      // retransmit adapts to liveness.
      if (p.stranded) p.msg.leg = router_.begin_random(v, net.node_rng(v));
      carry(net, v, std::move(p.msg), bits, custody, absorb);
    }
  }

  /// Folds every outstanding slot back into its holder.  Called once after
  /// the drain: by then any slot still parked was never delivered (acks
  /// are same-round), so the fold restores the conservation law exactly
  /// -- mass a crashed node held stays lost, which is the physical outcome.
  template <class Msg, class Absorb>
  void fold_back(Custody<Msg>& custody, Absorb&& absorb) const {
    if (!armed_) return;
    for (sim::NodeId v : all_ids_) {
      for (const auto& p : custody.held[v]) absorb(v, p.msg);
      custody.held[v].clear();
    }
    custody.total = 0;
  }

 private:
  enum class Hop : std::uint8_t { kSent, kStranded, kAtRoot };

  /// The engine's alive set as a routing liveness oracle: Chord hops
  /// detour around crashed nodes (stabilized overlay, see routing.hpp).
  template <class Msg>
  [[nodiscard]] static LivenessView liveness_of(const sim::Network<Msg>& net) noexcept {
    return LivenessView{&net, [](const void* p, NodeId v) {
                          return static_cast<const sim::Network<Msg>*>(p)->alive(v);
                        }};
  }

  /// Moves m one hop from its holder x: along the route, then up the
  /// tree.  kStranded: the message is stuck at x (a kStranded route around
  /// dead lattice regions, or a landing on a non-member such as a mid-run
  /// joiner); kAtRoot: x is the root it reached.  Keyed modes draw no
  /// per-hop randomness, so the holder's RNG slot is only touched for
  /// walks -- lazily constructed streams are pure functions of (seed,
  /// node), making the elision observationally invisible.
  template <class Msg>
  Hop advance(sim::Network<Msg>& net, sim::NodeId x, Msg& m, std::uint32_t bits) const {
    RouteState& route = m.leg;
    if (route.mode != RouteState::Mode::kDone) {
      sim::NodeId nh;
      if (route.mode == RouteState::Mode::kWalk) {
        nh = router_.next_hop(x, route, net.node_rng(x));
      } else if (crash_free_) {
        nh = router_.next_hop_fast(x, route);
      } else {
        nh = router_.next_hop_live(x, route, liveness_of(net));
      }
      if (nh != x) {
        net.send(x, nh, std::move(m), bits);
        return Hop::kSent;
      }
      if (route.mode == RouteState::Mode::kStranded) return Hop::kStranded;
      route.mode = RouteState::Mode::kDone;  // the route has arrived at x
    }
    if (!forest.is_member(x)) return Hop::kStranded;
    const NodeId parent = forest.parent(x);
    if (parent != kNoParent) {
      // Tree walk: one more hop of G per level, forwarded next round.  A
      // crashed parent simply never delivers -- churn severs the path.
      net.send(x, parent, std::move(m), bits);
      return Hop::kSent;
    }
    return Hop::kAtRoot;
  }

  /// Armed hop: a fresh custody id, then the hop; forwarded or stranded
  /// halves park with their pre-hop state (a stranded one is parked, not
  /// re-launched inline, which also breaks the boxed-in livelock of
  /// re-launching into the same dead region within one round).
  template <class Msg, class Absorb>
  void carry(sim::Network<Msg>& net, sim::NodeId x, Msg m, std::uint32_t bits,
             Custody<Msg>& custody, Absorb&& absorb) {
    m.seq = custody.next_seq[x]++;
    typename Custody<Msg>::Parked parked{m, net.round()};
    switch (advance(net, x, m, bits)) {
      case Hop::kAtRoot:
        absorb(x, m);
        return;
      case Hop::kStranded:
        parked.stranded = true;
        break;
      case Hop::kSent:
        break;
    }
    custody.held[x].push_back(std::move(parked));
    ++custody.total;
  }

  const SparseRouter& router_;
  bool crash_free_;
  bool armed_;
  std::uint32_t reclaim_after_;
  std::vector<sim::NodeId> all_ids_;  // armed upcall set (every node)
};

}  // namespace drrg::detail
