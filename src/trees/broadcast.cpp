#include "trees/broadcast.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

namespace {

struct BcMsg {
  enum class Kind : std::uint8_t { kValue, kAck };
  Kind kind;
  double payload = 0.0;
};

/// The protocol owns the broadcast rules (which children a node calls,
/// informing a child, recording an ack) and the result packaging; the
/// engine upcalls and the flat executor below both call them.
struct BcProtocol {
  BcProtocol(const Forest& f, std::span<const double> payload, bool simultaneous)
      : forest(f), all_children_at_once(simultaneous),
        value_bits(64 + address_bits(f.size())), state(f.size()),
        child_acked(f.child_slots(), 0), child_slot(f.size(), 0) {
    for (NodeId v = 0; v < f.size(); ++v) {
      if (!f.is_member(v)) continue;
      ++uninformed;
      if (f.is_root(v)) {
        state[v].informed = true;
        state[v].payload = payload[v];
        --uninformed;
      }
      // Only internal nodes ever call children; leaves and childless
      // roots stay off the active list.
      const auto children = f.children(v);
      if (!children.empty()) {
        active.push_back(v);
        for (std::size_t i = 0; i < children.size(); ++i)
          child_slot[children[i]] = f.child_offset(v) + i;
      }
    }
  }

  struct NodeState {
    bool informed = false;
    double payload = 0.0;
    std::uint32_t acked_count = 0;
    /// First child index that might be unacked (acked prefix skip: the
    /// per-round resend scan is O(1) amortised instead of O(children)).
    std::uint32_t resend_cursor = 0;
  };

  const Forest& forest;
  bool all_children_at_once;
  std::uint32_t value_bits;
  std::vector<NodeState> state;
  /// Ack flags for every (parent, child) edge, flat in the forest's CSR
  /// child order -- one array instead of n per-node vectors.
  std::vector<std::uint8_t> child_acked;
  /// child_slot[c]: c's index into child_acked (valid for members with a
  /// parent).
  std::vector<std::uint64_t> child_slot;
  std::vector<NodeId> active;  // internal nodes not yet fully acked, ascending
  std::uint32_t uninformed = 0;

  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return active;
  }

  /// Rule: an informed node (re)calls its unacked children, `call(c, slot)`
  /// for each (`slot` indexes child_acked).  §4 Assumption (1) reaches all
  /// (graph-neighbor) children in one round; the random phone call model
  /// allows one call per round, to the first child not yet acknowledged.
  template <class Call>
  void call_children(NodeId v, Call&& call) {
    NodeState& s = state[v];
    const auto children = forest.children(v);
    if (!s.informed || s.acked_count == children.size()) return;
    const std::uint64_t base = forest.child_offset(v);
    if (all_children_at_once) {
      for (std::size_t i = 0; i < children.size(); ++i)
        if (!child_acked[base + i]) call(children[i], base + i);
      return;
    }
    while (s.resend_cursor < children.size() && child_acked[base + s.resend_cursor])
      ++s.resend_cursor;
    if (s.resend_cursor < children.size())
      call(children[s.resend_cursor], base + s.resend_cursor);
  }

  /// Rule: a delivered kValue informs c.  True iff c learned it just now.
  bool inform(NodeId c, double payload) {
    NodeState& s = state[c];
    if (s.informed) return false;
    s.informed = true;
    s.payload = payload;
    --uninformed;
    return true;
  }

  /// Rule: p records the ack of the child at `slot` (idempotent under
  /// retries).
  void record_ack(NodeId p, std::uint64_t slot) {
    if (!child_acked[slot]) {
      child_acked[slot] = 1;
      ++state[p].acked_count;
    }
  }

  /// Drops fully-acked internal nodes, which never act again (between
  /// rounds, never while a round loop iterates); true once all are informed.
  bool prune() {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [this](NodeId v) {
                                  return state[v].acked_count ==
                                         forest.children(v).size();
                                }),
                 active.end());
    return uninformed == 0;
  }

  [[nodiscard]] BroadcastResult result(const sim::Counters& counters,
                                       std::uint32_t rounds) const {
    BroadcastResult r;
    r.received.assign(state.size(), 0.0);
    r.informed.assign(state.size(), false);
    for (NodeId v = 0; v < state.size(); ++v) {
      r.received[v] = state[v].payload;
      r.informed[v] = state[v].informed;
    }
    r.counters = counters;
    r.rounds = rounds;
    r.complete = uninformed == 0;
    return r;
  }

  // --- engine upcalls -----------------------------------------------------

  void on_round(sim::Network<BcMsg>& net, sim::NodeId v) {
    call_children(v, [&](NodeId c, std::uint64_t) {
      net.send(v, c, BcMsg{BcMsg::Kind::kValue, state[v].payload}, value_bits);
    });
  }

  void on_message(sim::Network<BcMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const BcMsg& m) {
    if (m.kind != BcMsg::Kind::kValue) return;
    inform(dst, m.payload);
    net.reply(dst, src, BcMsg{BcMsg::Kind::kAck, 0.0}, 1);
  }

  void on_reply(sim::Network<BcMsg>&, sim::NodeId src, sim::NodeId dst, const BcMsg& m) {
    if (m.kind == BcMsg::Kind::kAck) record_ack(dst, child_slot[src]);
  }

  [[nodiscard]] bool done(const sim::Network<BcMsg>&) { return prune(); }
};

/// Flat fault-free executor.  Every kValue is delivered and acknowledged
/// within its own round, so the round resolves inline.  The one ordering
/// hazard -- the engine runs all upcalls before any delivery, so a child
/// informed in round r must not itself send until round r+1 -- is handled
/// by stamping the informing round and gating sends on informed_at < r.
/// Counters and the informed/payload state are bit-identical to the
/// Network path (pinned by the golden determinism tests); no RNG is ever
/// drawn by either path.
BroadcastResult run_broadcast_flat(BcProtocol& proto, std::uint32_t max_rounds) {
  std::vector<std::uint32_t> informed_at(proto.state.size(), 0);  // roots: round 0
  sim::Counters counters;  // a local keeps the tallies in registers
  while (counters.rounds < max_rounds) {
    const std::uint32_t r = counters.rounds++;
    for (NodeId v : proto.active) {
      if (informed_at[v] > r) continue;
      proto.call_children(v, [&](NodeId c, std::uint64_t slot) {
        // kValue out, child informed, 1-bit ack back -- all this round.
        counters.sent += 2;
        counters.delivered += 2;
        counters.bits += proto.value_bits + 1;
        if (proto.inform(c, proto.state[v].payload)) informed_at[c] = r + 1;
        proto.record_ack(v, slot);
      });
    }
    if (proto.prune()) break;
  }
  return proto.result(counters, counters.rounds);
}

}  // namespace

BroadcastResult run_broadcast(const Forest& forest, std::span<const double> payload,
                              const RngFactory& rngs, const sim::Scenario& scenario,
                              BroadcastConfig config) {
  const std::uint32_t n = forest.size();
  if (payload.size() < n) throw std::invalid_argument("run_broadcast: payload too short");

  std::uint32_t max_rounds = config.max_rounds;
  if (max_rounds == 0) {
    max_rounds = config.simultaneous_children
                     ? 8 * (forest.max_tree_height() + 2) + 64
                     : 8 * (forest.max_tree_size() + 2) + 64;
  }
  BcProtocol proto{forest, payload, config.simultaneous_children};
  if (scenario.faults.fault_free()) return run_broadcast_flat(proto, max_rounds);
  sim::Network<BcMsg> net{n, rngs, scenario, derive_seed(0xbc, config.stream_tag)};
  const std::uint32_t rounds = net.run(proto, max_rounds);
  return proto.result(net.counters(), rounds);
}

}  // namespace drrg
