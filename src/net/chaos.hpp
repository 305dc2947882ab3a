#pragma once
// Deterministic adversity injection for the real UDP runtime.
//
// ChaosTransport decorates UdpTransport with the simulator's adversity
// vocabulary applied at the datagram level, driven entirely by a seeded
// per-node RNG stream so a chaos run is reproducible from the root
// seed:
//
//   drop      Bernoulli loss of the encoded datagram (on top of the
//             transport's own loss model)
//   dup       the datagram is sent twice
//   reorder   the datagram is held back until `reorder_span` later
//             sends have gone out (bounded hold-back queue)
//   delay     the datagram is held for a per-message draw from a
//             sim::LatencyModel reinterpreted in milliseconds
//   corrupt   one byte of the encoded frame is XOR-flipped (the wire
//             checksum guarantees the receiver rejects it)
//   cut       id-boundary partitions with optional heal: while a cut is
//             active, datagrams straddling the boundary are eaten --
//             both directions, since every node runs the same spec
//
// The decorator exposes the same surface as UdpTransport (bind /
// set_peers / set_loss / send / poll / stats), so net::NodeRuntime runs
// unmodified over either.  With a zero ChaosSpec every call forwards
// straight to the inner transport -- a byte-identical passthrough, no
// RNG draws, no buffering -- which is what keeps clean UDP runs
// bit-comparable with the pre-chaos runtime.
//
// ChaosEngine is the pure decision core (spec + RNG in, per-datagram
// decisions out) split from the socket plumbing so determinism is unit
// testable without opening sockets.

#include <cstdint>
#include <vector>

#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "sim/counters.hpp"
#include "support/rng.hpp"

namespace drrg::net {

/// A partition on the chaos layer's wall clock: from start_ms until
/// heal_ms, datagrams whose endpoints straddle `boundary` are dropped.
struct ChaosCut {
  std::int64_t start_ms = 0;
  std::int64_t heal_ms = kNoHeal;  ///< kNoHeal: never heals
  std::uint32_t boundary = 0;

  static constexpr std::int64_t kNoHeal = INT64_MAX;

  [[nodiscard]] bool active_at(std::int64_t now_ms) const noexcept {
    return now_ms >= start_ms && now_ms < heal_ms;
  }
  [[nodiscard]] bool cuts(std::uint32_t src, std::uint32_t dst) const noexcept {
    return (src < boundary) != (dst < boundary);
  }

  bool operator==(const ChaosCut&) const = default;
};

struct ChaosSpec {
  double drop = 0.0;
  double dup = 0.0;
  double corrupt = 0.0;
  double reorder = 0.0;
  std::uint32_t reorder_span = 4;  ///< hold-back horizon, in subsequent sends
  sim::LatencyModel delay{};       ///< per-datagram delay, min/max in *ms*
  std::vector<ChaosCut> cuts;

  /// True when the spec can perturb nothing: the passthrough predicate.
  [[nodiscard]] bool zero() const noexcept {
    return drop <= 0.0 && dup <= 0.0 && corrupt <= 0.0 && reorder <= 0.0 &&
           delay.zero() && cuts.empty();
  }

  bool operator==(const ChaosSpec&) const = default;
};

/// Folds a FaultSchedule's transport-level adversity into a chaos spec:
/// PartitionEvents become wall-clock cuts at round * round_ms, and the
/// schedule's LatencyModel (round units) becomes a delay model in ms.
/// Node deaths/births are NOT mapped -- each node keeps those wall
/// marks itself (net/node.hpp).
[[nodiscard]] ChaosSpec chaos_with_faults(ChaosSpec base, const sim::FaultSchedule& faults,
                                          std::int64_t round_ms);

/// What to do with one outgoing datagram.
struct ChaosDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  std::uint32_t corrupt_pos = 0;   ///< caller applies pos % frame_size
  std::uint8_t corrupt_mask = 1;   ///< non-zero XOR mask
  std::uint32_t hold_sends = 0;    ///< >0: hold until this many later sends
  std::int64_t delay_ms = 0;       ///< >0: hold for this long

  bool operator==(const ChaosDecision&) const = default;
};

/// The pure decision core: a spec plus one RNG stream.  Decisions are a
/// deterministic function of (spec, seed, call index) -- same seed, same
/// delivery schedule, which test_chaos pins.
class ChaosEngine {
 public:
  ChaosEngine() = default;
  ChaosEngine(ChaosSpec spec, Rng rng) : spec_(std::move(spec)), rng_(rng) {}

  [[nodiscard]] const ChaosSpec& spec() const noexcept { return spec_; }

  /// Decision for the next outgoing datagram.  Fixed draw order
  /// (drop, dup, reorder, delay, corrupt), each model consulted only
  /// when configured, so the stream of decisions is reproducible.
  [[nodiscard]] ChaosDecision next();

  /// True when an active cut separates src from dst at `now_ms`.
  [[nodiscard]] bool cut(std::uint32_t src, std::uint32_t dst,
                         std::int64_t now_ms) const noexcept;

 private:
  ChaosSpec spec_{};
  Rng rng_{};
};

/// Injection counters, surfaced through NodeReport for diagnosability.
struct ChaosStats {
  std::uint64_t injected_drops = 0;  ///< chaos drop decisions
  std::uint64_t cut_drops = 0;       ///< datagrams eaten by an active cut
  std::uint64_t duplicates = 0;      ///< extra copies sent
  std::uint64_t reorders = 0;        ///< datagrams held for later sends
  std::uint64_t delays = 0;          ///< datagrams held on the clock
  std::uint64_t corruptions = 0;     ///< bytes flipped
};

class ChaosTransport {
 public:
  ChaosTransport() = default;

  [[nodiscard]] bool bind(std::uint16_t port) { return inner_.bind(port); }
  [[nodiscard]] bool set_peers(std::uint32_t n, std::uint16_t port_base,
                               const std::vector<PeerAddr>& seed_list) {
    return inner_.set_peers(n, port_base, seed_list);
  }
  void set_loss(double p, Rng rng) { inner_.set_loss(p, rng); }

  /// Arms the chaos layer.  `self` is this node's id (for cut sidedness);
  /// `clock_offset_ms` shifts the chaos clock so late-spawned joiners
  /// share the cluster's t=0 (cut marks are cluster-relative).  A zero
  /// spec leaves the transport in passthrough mode.
  void set_chaos(const ChaosSpec& spec, std::uint32_t self, Rng rng,
                 std::int64_t clock_offset_ms = 0);

  bool send(const Frame& frame);
  [[nodiscard]] bool poll(Frame& out, int timeout_ms);

  [[nodiscard]] bool bound() const noexcept { return inner_.bound(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return inner_.port(); }
  [[nodiscard]] const std::string& error() const noexcept { return inner_.error(); }
  [[nodiscard]] const UdpStats& stats() const noexcept { return inner_.stats(); }
  [[nodiscard]] const ChaosStats& chaos_stats() const noexcept { return chaos_stats_; }
  [[nodiscard]] bool chaotic() const noexcept { return armed_; }

  void close() { inner_.close(); }

 private:
  struct Held {
    std::uint32_t dst = 0;
    std::uint64_t release_send = 0;   ///< release once send_index_ reaches this
    std::int64_t release_ms = 0;      ///< ...or once the clock reaches this
    std::vector<std::uint8_t> bytes;
  };

  [[nodiscard]] std::int64_t now_ms() const;
  void pump();  ///< flush every held datagram that has come due

  UdpTransport inner_;
  bool armed_ = false;
  std::uint32_t self_ = 0;
  ChaosEngine engine_{};
  ChaosStats chaos_stats_{};
  std::uint64_t send_index_ = 0;
  std::int64_t t0_ms_ = 0;  ///< steady-clock epoch of cluster t=0
  std::vector<Held> held_;
  std::vector<std::uint8_t> buf_;
};

/// Bound on the hold-back queue: past it the oldest datagram is
/// released immediately (reorder/delay never become unbounded memory).
inline constexpr std::size_t kMaxHeldDatagrams = 64;

}  // namespace drrg::net
