#pragma once
// Push-sum (Algorithm 6) over the forest roots, generic in the carrier.
//
// Each round every root keeps half of its (num, den) pair and sends the
// other half over one G~ edge; a half that reaches a root is absorbed.
// The halve, the absorb and the Lemma 8 contribution tracking are written
// once here; the Carrier (rootgossip/carrier.hpp) moves the halves and
// owns their custody -- which halves it parks and how it recovers a lost
// one.  The run functions own the schedules (gossip_ave.cpp for the dense
// pipelines, aggregate/sparse.cpp for the routed ones).  Private to the
// library: include it from .cpp files only.

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "rootgossip/carrier.hpp"
#include "rootgossip/gossip_ave.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg::detail {

struct NoPayload {};

// The protocol is compiled twice: the measurement variant (kTrack) carries
// the Lemma 8 contribution half-rows in every message, the production
// variant carries a POD -- no vector member, no heap traffic on the
// engine's hottest queue.  Both draw identical randomness (streams are a
// function of seed/purpose only), so the split is observationally free.
template <bool kTrack, class Leg>
struct PsMsg {
  double num = 0.0;
  double den = 0.0;
  // Sender-local custody id, echoed by the ack: under event-time latency
  // several halves from one holder are outstanding at once, and the ack
  // must resolve the right one.
  std::uint32_t seq = 0;
  Leg leg{};  // the carrier's per-hop state
  // Contribution half-row (kTrack only).  The vector is bookkeeping for
  // the Lemma 8 measurement, not protocol payload -- bit accounting
  // charges only the (num, den) pair.
  [[no_unique_address]] std::conditional_t<kTrack, std::vector<double>, NoPayload> y{};
};
// Field order keeps the dense production message at 24 bytes (32-byte
// queue envelopes): the queues are the engine's hottest memory traffic.
static_assert(sizeof(PsMsg<false, TreeCarrier::Leg>) == 24);

template <bool kTrack, class Carrier>
struct PushSumProtocol {
  using Msg = PsMsg<kTrack, typename Carrier::Leg>;

  PushSumProtocol(Carrier c, std::span<const double> num0, std::span<const double> den0,
                  Custody<Msg> ledger)
      : carrier(std::move(c)),
        custody(std::move(ledger)),
        num(carrier.forest.size(), 0.0),
        den(carrier.forest.size(), 0.0),
        pair_bits(2 * 64 + address_bits(carrier.forest.size())) {
    const auto& roots = carrier.forest.roots();
    for (NodeId r : roots) {
      num[r] = num0[r];
      den[r] = den0[r];
    }
    if constexpr (kTrack) {
      // y_{0,i} = e_i over the m roots.
      root_index.assign(carrier.forest.size(), 0);
      for (std::uint32_t i = 0; i < roots.size(); ++i) root_index[roots[i]] = i;
      Y.assign(roots.size(), std::vector<double>(roots.size(), 0.0));
      for (std::uint32_t i = 0; i < roots.size(); ++i) Y[i][i] = 1.0;
    }
  }

  Carrier carrier;
  Custody<Msg> custody;
  std::vector<double> num;
  std::vector<double> den;
  std::vector<std::uint32_t> root_index;  // kTrack: row of each root in Y
  std::vector<std::vector<double>> Y;     // contribution rows, root-index order
  std::uint32_t pair_bits;
  /// Set by the run function for the push rounds; the drain runs with it off.
  bool initiating = false;

  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return carrier.active_nodes();
  }

  void on_round(sim::Network<Msg>& net, sim::NodeId v) {
    if (!initiating || !carrier.initiates(v)) return;
    // Keep half, send half (computed before any of this round's receipts).
    num[v] *= 0.5;
    den[v] *= 0.5;
    Msg m{num[v], den[v]};
    if constexpr (kTrack) {
      auto& row = Y[root_index[v]];
      for (double& yj : row) yj *= 0.5;
      m.y = row;
    }
    carrier.launch(net, v, std::move(m), pair_bits, custody, absorber());
  }

  void on_message(sim::Network<Msg>& net, sim::NodeId src, sim::NodeId dst, const Msg& m) {
    carrier.deliver(net, src, dst, m, pair_bits, custody, absorber());
  }

  /// Every reply is a custody ack.
  void on_reply(sim::Network<Msg>&, sim::NodeId, sim::NodeId dst, const Msg& m) {
    carrier.acked(dst, m.seq, custody);
  }

  void on_round_end(sim::Network<Msg>& net, sim::NodeId v) {
    carrier.reclaim(net, v, pair_bits, custody, absorber());
  }

  /// Folds a half into v's pair (and its contribution row).
  void absorb(sim::NodeId v, const Msg& m) {
    num[v] += m.num;
    den[v] += m.den;
    if constexpr (kTrack) {
      if (!m.y.empty()) {
        auto& row = Y[root_index[v]];
        for (std::size_t j = 0; j < row.size(); ++j) row[j] += m.y[j];
      }
    }
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

  /// Moves the final pairs into `out` with the estimates num/den at the
  /// roots.
  void finish(PushSumResult& out) {
    out.num = std::move(num);
    out.den = std::move(den);
    out.estimate.assign(out.num.size(), 0.0);
    for (NodeId r : carrier.forest.roots())
      if (out.den[r] > 0.0) out.estimate[r] = out.num[r] / out.den[r];
  }

 private:
  auto absorber() {
    return [this](sim::NodeId v, const Msg& m) { absorb(v, m); };
  }
};

}  // namespace drrg::detail
