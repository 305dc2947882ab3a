#pragma once
// Convergecast (Algorithms 2 and 3), generic in the aggregated value.
//
// One copy of the protocol serves every caller: run_convergecast folds
// (value, weight) pairs under max/min/sum, extrema propagation folds
// k-vectors of exponentials under componentwise min.  `merge(into, from)`
// absorbs a child's partial aggregate into its parent's; the message
// carries one Value and is charged `value_bits`, its ack 1 bit.
//
// run_convergecast_of takes the flat executor when the scenario is
// fault-free and the generic sim::Network path otherwise; the two are
// byte-identical (pinned by the golden determinism tests).  Private to
// the library: include it from .cpp files only.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "sim/counters.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg::detail {

template <class Value>
struct CcMsg {
  enum class Kind : std::uint8_t { kValue, kAck };
  Kind kind;
  Value value{};
};

template <class Value>
struct CcNode {
  Value acc{};  // partial aggregate of v's subtree so far
  std::uint32_t pending_children = 0;
  bool sent_up = false;  // parent acknowledged
};

template <class Value, class Merge>
struct CcProtocol {
  using Msg = CcMsg<Value>;

  template <class Init>
  CcProtocol(const Forest& f, Init&& init, Merge m, std::uint32_t bits)
      : forest(f), merge(std::move(m)), value_bits(bits), state(f.size()),
        reported(f.size(), 0) {
    for (NodeId v = 0; v < f.size(); ++v) {
      if (!f.is_member(v)) continue;
      CcNode<Value>& s = state[v];
      s.acc = init(v);
      s.pending_children = static_cast<std::uint32_t>(f.children(v).size());
      if (!f.is_root(v)) {
        ++unfinished;
        active.push_back(v);  // roots never act in on_round
      }
    }
    for (NodeId r : f.roots())
      if (state[r].pending_children > 0) ++unfinished_roots;
  }

  const Forest& forest;
  Merge merge;
  std::uint32_t value_bits;
  std::vector<CcNode<Value>> state;
  /// reported[c]: c's kValue was absorbed at its parent.  Every node has
  /// exactly one parent, so one flag per child edge.  Under event-time
  /// latency the resend loop puts several copies of the same kValue in
  /// flight before the first ack returns; absorbing a duplicate would
  /// double-count the subtree and wrap pending_children, so duplicates
  /// are acked (to stop the resends) but never absorbed.
  std::vector<std::uint8_t> reported;
  std::vector<NodeId> active;          // non-roots not yet acked, ascending
  std::uint32_t unfinished = 0;        // non-roots that have not been acked
  std::uint32_t unfinished_roots = 0;  // roots still waiting on children

  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return active;
  }

  /// Folds a child's partial aggregate into its parent p.  Returns true
  /// when p has now heard from all of its children.
  bool absorb(NodeId p, const Value& from) {
    CcNode<Value>& s = state[p];
    merge(s.acc, from);
    --s.pending_children;
    if (s.pending_children != 0) return false;
    if (forest.is_root(p) && unfinished_roots > 0) --unfinished_roots;
    return true;
  }

  void on_round(sim::Network<Msg>& net, sim::NodeId v) {
    const CcNode<Value>& s = state[v];
    if (s.sent_up || s.pending_children > 0) return;
    // All children reported: push the partial aggregate to the parent,
    // repeating each round until the ack arrives.
    net.send(v, forest.parent(v), Msg{Msg::Kind::kValue, s.acc}, value_bits);
  }

  void on_message(sim::Network<Msg>& net, sim::NodeId src, sim::NodeId dst, const Msg& m) {
    if (m.kind != Msg::Kind::kValue) return;
    if (!reported[src]) {
      reported[src] = 1;
      absorb(dst, m.value);
    }
    net.reply(dst, src, Msg{Msg::Kind::kAck, Value{}}, 1);
  }

  void on_reply(sim::Network<Msg>&, sim::NodeId, sim::NodeId dst, const Msg& m) {
    if (m.kind != Msg::Kind::kAck) return;
    CcNode<Value>& s = state[dst];
    if (!s.sent_up) {
      s.sent_up = true;
      --unfinished;
    }
  }

  void prune() {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [this](NodeId v) { return state[v].sent_up; }),
                 active.end());
  }

  [[nodiscard]] bool finished() const { return unfinished == 0 && unfinished_roots == 0; }

  [[nodiscard]] bool done(const sim::Network<Msg>&) {
    // Acked nodes are pure no-ops from here on; pruning runs between
    // rounds (never while the engine iterates the active span).
    prune();
    return finished();
  }
};

template <class Value>
struct ConvergecastRun {
  /// Per-node state; node[v].acc is the folded aggregate (at roots: the
  /// whole tree's), Value{} at non-members.
  std::vector<CcNode<Value>> node;
  sim::Counters counters;
  std::uint32_t rounds = 0;
  bool complete = false;
};

/// Flat fault-free executor.  Each ready node's value reaches its parent
/// (and is acked) within its own round, so the round resolves inline.
/// The ordering hazard -- a parent whose last child reports in round r
/// must not push upward until round r+1 (the engine runs all upcalls
/// before any delivery) -- is handled by stamping ready_at when
/// pending_children hits zero.  A parent absorbing inline is safe in
/// either id order: a parent still waiting on children never sends in
/// that same round, so no same-round send can observe the absorption
/// early.  Per-parent absorption order is the ascending-child send order
/// the engine produces, keeping IEEE-754 sums bit-identical; no RNG is
/// ever drawn by either path.
template <class Value, class Merge>
void run_convergecast_flat(CcProtocol<Value, Merge>& proto, std::uint32_t max_rounds,
                           ConvergecastRun<Value>& out) {
  std::vector<std::uint32_t> ready_at(proto.forest.size(), 0);  // leaves: round 0
  sim::Counters counters;  // a local keeps the tallies in registers
  while (counters.rounds < max_rounds) {
    const std::uint32_t r = counters.rounds++;
    for (NodeId v : proto.active) {
      auto& s = proto.state[v];
      if (s.sent_up || s.pending_children > 0 || ready_at[v] > r) continue;
      // Value up, absorbed at the parent, 1-bit ack back -- all this round.
      const NodeId p = proto.forest.parent(v);
      if (proto.absorb(p, s.acc)) ready_at[p] = r + 1;  // pushes up next round
      s.sent_up = true;
      --proto.unfinished;
      counters.sent += 2;
      counters.delivered += 2;
      counters.bits += proto.value_bits + 1;
    }
    proto.prune();
    if (proto.finished()) break;
  }
  out.counters = counters;
  out.rounds = counters.rounds;
}

/// Runs convergecast over `forest`: `init(v)` is member v's own Value,
/// `merge(into, from)` folds a child's report into its parent.  `purpose`
/// namespaces the engine's loss stream.
template <class Value, class Init, class Merge>
ConvergecastRun<Value> run_convergecast_of(const Forest& forest, Init&& init, Merge merge,
                                           std::uint32_t value_bits,
                                           std::uint32_t max_rounds, const RngFactory& rngs,
                                           const sim::Scenario& scenario,
                                           std::uint64_t purpose) {
  CcProtocol<Value, Merge> proto{forest, init, std::move(merge), value_bits};
  ConvergecastRun<Value> out;
  if (scenario.faults.fault_free()) {
    run_convergecast_flat(proto, max_rounds, out);
  } else {
    sim::Network<CcMsg<Value>> net{forest.size(), rngs, scenario, purpose};
    out.rounds = net.run(proto, max_rounds);
    out.counters = net.counters();
  }
  out.complete = proto.finished();
  out.node = std::move(proto.state);
  return out;
}

}  // namespace drrg::detail
