#pragma once
// Fork-based multi-process driver: runs one drrg_node runtime per OS
// process on localhost and collects every process's NodeReport over a
// pipe.  This is how the test suite and the API facade execute the UDP
// transport end to end without shelling out to the drrg_node binary --
// the daemon is the same run_node() loop behind an argv parser.
//
// Isolation is real: each child is a separate process with its own
// socket, heap and RNG state; the only shared inputs are the (seed,
// faults) pair every node derives its world from, exactly like N
// machines reading the same experiment config.
//
// Robustness contract: the parent enforces a hard wall-clock deadline
// (node deadline + teardown margin).  Children that miss it are killed
// and reported as failed -- a wedged cluster degrades into a failed
// ClusterReport, never a hung test run.

#include <cstdint>
#include <string>
#include <vector>

#include "net/node.hpp"

namespace drrg::net {

struct ClusterOptions {
  std::uint32_t n = 0;
  std::uint64_t seed = 42;
  sim::FaultSchedule faults{};
  /// Per-node inputs; empty = workload::make_values(n, seed) in every child.
  std::vector<double> values;
  /// First UDP port (node v binds port_base + v); 0 = probe for a free range.
  std::uint16_t port_base = 0;
  /// Explicit addresses, position i = node i (overrides port_base).  The
  /// fork-based driver runs on one host, so these must be loopback; a
  /// non-local address simply fails each child's bind.
  std::vector<PeerAddr> seed_list;
  /// Template for per-node timing knobs (node/n/seed/faults/ports are
  /// overwritten per child); chaos and round_ms reach every child.  Each
  /// child keeps the fault schedule's wall marks itself: a mid-run victim
  /// halts at death_round * round_ms and still reports (scheduled_crash
  /// set, its datagrams counted), a round-0 victim reports without
  /// binding, and a joiner binds at birth_round * round_ms.  The parent
  /// only widens its deadline past the latest birth mark.
  NodeOptions node_template{};
};

struct ClusterReport {
  bool ok = false;  ///< every non-crashed node reported ok
  std::string error;
  std::uint16_t port_base = 0;  ///< the range actually used
  std::vector<NodeReport> nodes;  ///< index == node id, always n entries
  std::int64_t wall_ms = 0;
};

/// True when this platform can fork and bind UDP sockets.
[[nodiscard]] bool multiproc_available() noexcept;

/// Finds a base port such that [base, base + n) all bind on loopback.
/// Returns 0 if no range was found.  Best-effort: the range is released
/// before the caller's children rebind it.
[[nodiscard]] std::uint16_t probe_port_range(std::uint32_t n, std::uint16_t hint);

/// Forks n node processes, waits for their reports, kills stragglers.
/// Serialised process-wide (one cluster at a time) so concurrent tests
/// do not fight over ports.
[[nodiscard]] ClusterReport run_cluster(const ClusterOptions& options);

}  // namespace drrg::net
