#pragma once
// UdpTransport: one node's datagram endpoint plus the peer address
// table.  This is the real-socket counterpart of the lockstep
// sim::Network: it moves wire.hpp
// frames between processes and keeps the same sent/delivered/bits
// accounting, but delivery is asynchronous and unreliable -- retry and
// timeout policy lives with the protocol state machines in node.hpp.
//
// Addressing: node v resolves to 127.0.0.1:(port_base + v) unless an
// explicit seed list ("host:port,host:port,..." -- position i is node
// i's address, lissandra-style) overrides it.  Loss injection
// (send_loss_prob) drops outgoing datagrams with the same deterministic
// per-node coin the simulator uses, so a multi-process run can be
// subjected to the fault schedule's loss model.
//
// POSIX sockets only; non-POSIX builds get a stub that reports the
// transport as unavailable (the simulator path is portable).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "support/rng.hpp"

namespace drrg::net {

/// Parsed "host:port" seed-list entry.
struct PeerAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parses "host:port,host:port,..." (bare "port" entries default the
/// host to 127.0.0.1).  std::nullopt on malformed input.
[[nodiscard]] std::optional<std::vector<PeerAddr>> parse_seed_list(const std::string& text);

/// True when this build carries a real UDP transport (POSIX).
[[nodiscard]] bool udp_available() noexcept;

struct UdpStats {
  std::uint64_t sent = 0;        ///< frames handed to the socket (incl. injected drops)
  std::uint64_t delivered = 0;   ///< frames received and decoded
  std::uint64_t bits = 0;        ///< payload bits sent (wire bytes * 8)
  std::uint64_t dropped = 0;     ///< injected loss drops
  std::uint64_t rejected = 0;    ///< datagrams failing strict decode
};

class UdpTransport {
 public:
  UdpTransport() = default;
  ~UdpTransport();
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Binds 127.0.0.1:port (port 0 lets the kernel pick; see port()).
  /// Returns false (with a message in error()) on failure.
  [[nodiscard]] bool bind(std::uint16_t port);

  /// Installs the node-id -> address table: explicit seed list when
  /// non-empty, else the port_base + id scheme for all n nodes.
  [[nodiscard]] bool set_peers(std::uint32_t n, std::uint16_t port_base,
                               const std::vector<PeerAddr>& seed_list);

  /// Deterministic injected-loss model: outgoing frames are dropped with
  /// probability p using `rng` (pass the node's engine-derived stream).
  void set_loss(double p, Rng rng) {
    loss_prob_ = p;
    loss_rng_ = rng;
  }

  /// Encodes and sends one frame to frame.dst.  Injected losses count
  /// as sent (a lost message still consumed bandwidth -- the same
  /// accounting rule as sim::Network).  Returns false only on a local
  /// socket error.
  bool send(const Frame& frame);

  /// Sends pre-encoded wire bytes to node `dst` (the seam a decorating
  /// transport uses after mutating/duplicating/holding the datagram).
  /// Applies the same loss coin and sent/bits/dropped accounting as
  /// send().
  bool send_raw(std::uint32_t dst, std::span<const std::uint8_t> bytes);

  /// Accounting hook for a decorator that eats an encoded frame before
  /// the socket (injected chaos drop / partition cut): the datagram
  /// still consumed bandwidth, same rule as an injected loss.
  void note_dropped(std::size_t bytes) noexcept {
    stats_.sent += 1;
    stats_.bits += static_cast<std::uint64_t>(bytes) * 8;
    stats_.dropped += 1;
  }

  /// Receives at most one datagram, waiting up to timeout_ms (0 = pure
  /// poll).  Strictly decoded; malformed datagrams are counted and
  /// dropped.  Returns true and fills `out` when a frame arrived.
  [[nodiscard]] bool poll(Frame& out, int timeout_ms);

  [[nodiscard]] bool bound() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const UdpStats& stats() const noexcept { return stats_; }

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string error_;
  UdpStats stats_{};
  double loss_prob_ = 0.0;
  Rng loss_rng_{};
  std::vector<std::uint64_t> peer_addr_;  // packed sockaddr (ip<<16|port) per node
  std::vector<std::uint8_t> buf_;         // reusable encode/decode buffer
};

}  // namespace drrg::net
