#pragma once
// The drrg_node runtime: one OS process, one protocol node.
//
// run_node() executes the full DRR-gossip pipeline over a real
// UdpTransport, as a single-threaded event loop of per-message state
// machines (the lissandra shape: periodic ticks + stage machines, no
// lockstep rounds):
//
//   bootstrap   hello/ack against the seed list until a small quorum
//               answers or a deadline passes -- a dropped bootstrap
//               packet degrades (retry, then proceed) instead of
//               hanging;
//   Phase I     DRR (Algorithm 1) over kProbe/kConnect envelopes, by
//               the simulator's own rules (drr/drr_rules.hpp): the
//               node draws its rank from the *same* RngFactory stream,
//               probes the same targets in the same order and connects
//               to the first higher-ranked responder (retry-capped,
//               root on exhaustion -- the paper's loss semantics).  The
//               node adds only per-peer retry/backoff and dedup, so on
//               a clean run every node's parent equals run_drr's;
//   Phase II    convergecast as monotone push: every settled node
//               (re)sends its current subtree stats {max,min,sum,count}
//               up-tree whenever they change, also after the final; a
//               parent keeps one versioned slot per child, which a retry
//               replaces, and a child that gives up on its parent becomes
//               a root and retracts its slot (kTreeLeave): each subtree
//               folds once;
//   Phase III   root gossip as push-pull anti-entropy over per-root
//               table entries: roots push their table at a uniformly
//               random peer (non-roots relay the envelope up-tree, the
//               paper's tree-member relay), the landing root merges and
//               answers with its own table, and a root finalizes after
//               a minimum exchange budget plus a quiet streak;
//   spread      the folded result travels root -> children (kFinal,
//               versioned, acked + retried, also to a child the failure
//               detector calls dead), then the node lingers to serve
//               stragglers and exits with a machine-readable report.  A
//               lingering root keeps gossiping, re-folds and re-spreads
//               when its table changes; a late child gets the final.
//
// Fault schedule: the node computes sim::full_timeline(n, seed,
// faults) -- a pure function of the root seed, so every process and the
// simulator agree on it without coordination.  A node whose death round
// is 0 reports itself crashed and never binds; a mid-run death round r
// halts the node after r protocol steps (an approximation of the
// simulator's global round clock -- real processes have no lockstep
// rounds).  Link loss can be injected on the send path with the same
// Bernoulli model the simulator applies.
//
// NodeOptions holds the deployment settings and the few timings that
// run_cluster's callers widen (bootstrap, linger, deadline); the
// protocol's retry and gossip timings are constants in node.cpp.  The whole run is
// bounded by deadline_ms: a wedged peer set produces a failed report,
// never a hung process.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/counters.hpp"
#include "net/chaos.hpp"
#include "net/udp_transport.hpp"

namespace drrg::net {

struct NodeOptions {
  std::uint32_t node = 0;  ///< this process's node id in [0, n)
  std::uint32_t n = 0;
  std::uint64_t seed = 42;
  sim::FaultSchedule faults{};

  /// Per-node inputs; empty = workload::make_values(n, seed).
  std::vector<double> values;

  std::uint16_t port_base = 29600;  ///< node v listens on port_base + v
  std::uint16_t bind_port = 0;      ///< 0 = port_base + node
  std::vector<PeerAddr> seed_list;  ///< position i = node i (overrides port_base)

  // -- timing: what a deployment or a cluster launch may need to widen --
  std::int64_t bootstrap_min_ms = 250;       ///< floor (lets slow peers bind)
  std::int64_t bootstrap_timeout_ms = 4000;  ///< proceed regardless after this
  std::int64_t linger_ms = 2000;  ///< serve stragglers after the final value
  /// Hard wall-clock bound on the whole run.
  std::int64_t deadline_ms = 30000;

  // -- adversity -------------------------------------------------------
  /// Datagram-level chaos (drop/dup/reorder/delay/corrupt/cut), layered
  /// on by ChaosTransport; zero = byte-identical passthrough.
  ChaosSpec chaos{};
  /// >0: wall-clock milliseconds per scheduled round -- death rounds and
  /// join births become wall marks at round * round_ms, and the fault
  /// schedule's partitions/latency fold into the chaos spec.  0 keeps
  /// the legacy protocol-steps approximation.
  std::int64_t round_ms = 0;
  /// false: the multiproc driver owns mid-run deaths (real SIGKILL); the
  /// node never halts itself on its death mark.
  bool self_halt = true;
};

/// What one node process reports when it exits (serialised over a pipe
/// by the multi-process driver, or as JSON by the drrg_node daemon).
struct NodeReport {
  std::uint32_t node = 0;
  bool scheduled_crash = false;  ///< fault timeline killed it at round 0
  bool ok = false;               ///< produced a final value before the deadline
  bool root = false;
  std::uint32_t parent = 0xffffffffu;  ///< 0xffffffff = none
  // The folded consensus stats (valid when ok).
  double max = 0.0;
  double min = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;
  // Accounting.
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bits = 0;
  std::uint64_t retries = 0;
  std::uint32_t steps = 0;  ///< protocol steps executed (round estimate)
  std::uint32_t roots_seen = 0;
  std::int64_t wall_ms = 0;
  // Degradation accounting: how much adversity the node absorbed.
  std::uint64_t duplicates_dropped = 0;  ///< dedup window suppressions
  std::uint64_t corrupt_rejected = 0;    ///< datagrams failing strict decode
  std::uint64_t reorders_buffered = 0;   ///< datagrams chaos held for later sends
  std::uint64_t backoff_ms_total = 0;    ///< extra wait added over fixed-interval retry
  std::uint64_t suspect_flaps = 0;       ///< peers rescued from suspect/dead
  std::string error;
};

/// Runs the node to completion (or its deadline).  Blocking.
[[nodiscard]] NodeReport run_node(const NodeOptions& options);

/// One-line pipe encodings for the multi-process driver (stable field
/// order, '|' separated, doubles at full round-trip precision).
[[nodiscard]] std::string encode_report(const NodeReport& report);
[[nodiscard]] bool decode_report(const std::string& line, NodeReport& out);

/// JSON rendering for the drrg_node daemon's stdout.
[[nodiscard]] std::string report_json(const NodeReport& report);

}  // namespace drrg::net
