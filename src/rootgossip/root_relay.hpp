#pragma once
// Flat fault-free driver shared by the Phase III root-gossip protocols
// (Gossip-max/Data-spread and push-sum).
//
// Both protocols move one call per root per active round over the same
// G~ = clique(V~) edge: the root (or, on explicit topologies, a uniform
// random member of its tree that carries the call) samples a substrate
// peer, and a non-root receiver forwards to its root one round later.
// Only the payload and what a root does with it differ, so this driver
// owns everything else:
//
//   * the per-node sampling streams, identical to Network::node_rng(v)
//     and lazily constructed (the relay touches arbitrary members, roots
//     always draw);
//   * the relay-carrier pick;
//   * the cur/nxt queues: sends made while delivering round r's batch
//     are delivered at the *front* of round r+1's batch, ahead of that
//     round's fresh root calls -- the engine's leftover-outbox order;
//   * the forward-to-root step.
//
// Every send, delivery and RNG draw happens in exactly the order the
// sim::Network path (the protocols on their TreeCarrier) produces, so
// counters and results are bit-identical (the golden determinism tests
// pin this) at roughly twice the engine's throughput.  With no faults possible every call is delivered, so the
// driver keeps no crash/loss checks and no reply machinery.  Private to
// the library: include it from .cpp files only.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg::detail {

template <class Msg>
class RootRelay {
 public:
  RootRelay(const Forest& forest, const RngFactory& rngs, const sim::Scenario& scenario,
            std::uint64_t purpose, bool relay)
      : forest_(forest),
        rngs_(rngs),
        purpose_(purpose),
        relay_(relay),
        sample_(scenario.topology.sampler(forest.size())),
        rng_slot_(relay ? forest.size() : forest.roots().size()),
        rng_init_(rng_slot_.size(), 0) {
    cur_.reserve(forest.roots().size() * 2);
    nxt_.reserve(forest.roots().size() * 2);
  }

  /// Every root v, in ascending order, starts one call carrying make(v).
  template <class Make>
  void initiate(Make&& make) {
    const std::vector<NodeId>& roots = forest_.roots();
    const sim::Topology::PeerSampler sample = sample_;  // register-resident
    sent_ += roots.size();
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const NodeId v = roots[i];
      Rng& rng = rng_at(v, relay_ ? v : i);
      Msg m = make(v);
      if (relay_) {
        // Pick the member that carries this call (the root itself with
        // probability 1/|tree|, the size-1 tree degenerating to the
        // direct path).
        const auto members = forest_.tree_members(v);
        const auto carrier = static_cast<NodeId>(members[rng.next_below(members.size())]);
        if (carrier != v) {
          cur_.push_back(Pending{carrier, true, std::move(m)});
          continue;
        }
      }
      cur_.push_back(Pending{sample(v, rng), false, std::move(m)});
    }
  }

  /// Delivers this round's batch.  A call that reaches a root v runs
  /// at_root(v, msg, send); `send(dst, msg)` answers it in the next round.
  template <class AtRoot>
  void deliver(AtRoot&& at_root) {
    // Locals, not members: the queue pushes would force reloads.
    const sim::Topology::PeerSampler sample = sample_;
    const NodeId* root_of = forest_.root_of_table();
    std::uint64_t sent = 0;
    auto send = [&](NodeId dst, Msg m) {
      ++sent;
      nxt_.push_back(Pending{dst, false, std::move(m)});
    };
    for (Pending& e : cur_) {
      if (e.carried) {
        // Relay hop: the carrier samples *its* substrate neighbor.
        send(sample(e.dst, rng_at(e.dst, e.dst)), std::move(e.msg));
        continue;
      }
      const NodeId root = root_of[e.dst];
      if (root != e.dst) {
        // Second hop of the G~ edge: forward to the root address learned
        // in Phase II.
        send(root, std::move(e.msg));
        continue;
      }
      at_root(e.dst, e.msg, send);
    }
    sent_ += sent;
    delivered_ += cur_.size();
    cur_.swap(nxt_);
    nxt_.clear();
  }

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  struct Pending {
    NodeId dst;
    bool carried;  // first hop to a relay carrier, not yet sampled onward
    Msg msg;
  };

  Rng& rng_at(NodeId v, std::size_t slot) {
    if (!rng_init_[slot]) {
      rng_slot_[slot] = rngs_.node_stream(v, purpose_);
      rng_init_[slot] = 1;
    }
    return rng_slot_[slot];
  }

  const Forest& forest_;
  RngFactory rngs_;
  std::uint64_t purpose_;
  bool relay_;
  sim::Topology::PeerSampler sample_;
  std::vector<Rng> rng_slot_;
  std::vector<std::uint8_t> rng_init_;
  std::vector<Pending> cur_;
  std::vector<Pending> nxt_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace drrg::detail
