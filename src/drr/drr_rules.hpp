#pragma once
// Algorithm 1's per-node rules as a plain value type, with no transport
// inside.  The simulator's DRR (its engine upcalls and its flat
// fault-free executor, drr/drr.cpp) and the UDP node (net/node.cpp) feed
// it the same events and act on the same answers.
//
// A node draws its rank (the first draw of its Phase I stream).  Each
// exchange then opens with `begin_round`, which says what to send: a
// probe to `probe_target`, or a connect to the pending parent.  It closes
// with the outcome: `probe_answered` or `connected`, then `end_round`
// (or `connect_exhausted` when a retrying transport spent the connect
// cap on its own).  A node settles once: under an acknowledged parent,
// or as a root when its probe budget or its connect cap runs out.

#include <cstdint>

#include "forest/forest.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace drrg {

struct DrrConfig {
  /// Probes per node; 0 means the paper's log2(n) - 1.
  std::uint32_t probe_budget = 0;
  /// Connection (re)send attempts before giving up and becoming a root.
  std::uint32_t connect_attempt_cap = 8;
  /// Disambiguates the per-node RNG streams when several Phase I runs
  /// share one root seed (e.g. the quantile bisection's sub-runs, which
  /// must share a crash set but draw fresh ranks).  0 keeps the
  /// historical stream.
  std::uint64_t stream_tag = 0;
};

/// Purpose of each node's Phase I RNG stream.
[[nodiscard]] inline std::uint64_t drr_stream_purpose(std::uint64_t stream_tag) noexcept {
  return stream_tag != 0 ? derive_seed(0x11ddULL, stream_tag) : 0x11ddULL;
}

/// A node's rank is the first draw of its Phase I stream; the later draws
/// sample its probe targets.
[[nodiscard]] inline double draw_rank(Rng& stream) { return stream.next_unit(); }

/// One node's Algorithm 1 state.  The rank is kept elsewhere: the
/// simulator holds all ranks in one dense array, which is all a probe
/// reply reads.
struct DrrNode {
  std::uint32_t attempts = 0;  ///< probes consumed
  std::uint32_t connect_attempts = 0;
  NodeId pending_parent = kNoParent;  ///< found, not yet acked
  NodeId parent = kNoParent;          ///< acknowledged parent
  bool probe_outstanding = false;     ///< sent, awaiting its answer
  bool settled = false;
};

struct DrrRules {
  enum class Action : std::uint8_t { kIdle, kConnect, kProbe };

  DrrRules(std::uint32_t n_, const DrrConfig& cfg, bool complete_graph)
      : n(n_),
        complete(complete_graph),
        budget(cfg.probe_budget != 0 ? cfg.probe_budget : drr_probe_budget(n_)),
        connect_cap(cfg.connect_attempt_cap) {}

  std::uint32_t n;
  bool complete;
  std::uint32_t budget;
  std::uint32_t connect_cap;

  /// Rule: a node calls its chosen parent until acknowledged, else probes
  /// while its budget lasts.
  Action begin_round(DrrNode& s) const {
    if (s.settled) return Action::kIdle;
    if (s.pending_parent != kNoParent) {
      ++s.connect_attempts;
      return Action::kConnect;
    }
    if (s.attempts >= budget) return Action::kIdle;
    s.probe_outstanding = true;
    return Action::kProbe;
  }

  /// Self-samples tell us nothing; on the complete graph skip them cheaply
  /// (the analysis assumes distinct samples whp).  On an explicit topology
  /// only an isolated node self-samples: its probe is a spent attempt and
  /// it becomes a root by exhaustion.
  [[nodiscard]] NodeId probe_target(NodeId v, NodeId sampled) const {
    return sampled == v && complete ? (sampled + 1) % n : sampled;
  }

  /// Rule: a probe of u answered with u's rank; a higher rank than the
  /// node's own makes u the pending parent.
  static void probe_answered(DrrNode& s, NodeId u, double rank_u, double own_rank) {
    s.probe_outstanding = false;
    ++s.attempts;
    if (rank_u > own_rank) s.pending_parent = u;
  }

  /// Rule: the connect to `parent` was acknowledged.  Duplicates from
  /// retries are idempotent: children are rebuilt from parent pointers.
  /// True when this settled the node.
  static bool connected(DrrNode& s, NodeId parent) {
    s.parent = parent;
    return settle(s);
  }

  /// Rule: the connect cap ran out unacknowledged -- root by exhaustion.
  /// True when this settled the node.
  static bool connect_exhausted(DrrNode& s) { return settle(s); }

  /// Closes an exchange.  A probe still outstanding was lost: the sampled
  /// node told us nothing and the attempt is spent (conservative -- it
  /// can only create extra roots).  Then the root rule: a node becomes a
  /// root when its connect cap or, with no parent found, its probe budget
  /// runs out.  True when this settled the node.
  bool end_round(DrrNode& s) const {
    if (s.settled) return false;
    if (s.probe_outstanding) {
      s.probe_outstanding = false;
      ++s.attempts;
    }
    if (s.pending_parent != kNoParent)
      return s.connect_attempts >= connect_cap && connect_exhausted(s);
    return s.attempts >= budget && settle(s);
  }

  /// Probe budget rounds plus connection retries; the +2 covers the final
  /// connect/ack exchange.  Round-based executors usually stop earlier.
  [[nodiscard]] std::uint32_t max_rounds() const { return budget + connect_cap + 2; }

 private:
  static bool settle(DrrNode& s) {
    if (s.settled) return false;
    s.settled = true;
    return true;
  }
};

}  // namespace drrg
