#pragma once
// The traced run: replays a pipeline by calling its public phase
// functions from outside the library, timing each call and keeping its
// sim::Counters, then checks those counters against the RunReport that
// api::run produced for the same spec.  Equality makes the per-layer
// numbers describe the very program the end-to-end numbers time.

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "api/api.hpp"
#include "sim/counters.hpp"

namespace perfbench {

/// The dense pipeline's phase calls, in the order Algorithms 7 and 8 make
/// them.  Algorithm 8 (Ave) runs election, push-sum and spread;
/// Algorithm 7 (Max) runs one gossip-max in their place.
enum Phase : int {
  kDrr,
  kConvergecast,
  kAddrBroadcast,
  kElection,
  kPushSum,
  kSpread,
  kGossipMax,
  kValueBroadcast,
  kPhaseCount,
};

inline constexpr std::array<const char*, kPhaseCount> kPhaseNames = {
    "drr",    "convergecast", "addr_broadcast", "election",
    "push_sum", "spread",     "gossip_max",     "value_broadcast",
};

struct PhaseCall {
  double wall_s = 0.0;
  drrg::sim::Counters counters;
};

struct DenseTrace {
  std::array<PhaseCall, kPhaseCount> phase{};
  std::uint64_t probes = 0;  ///< Phase I probes issued
  drrg::ForestSummary forest;
  double value = 0.0;        ///< the largest tree's root value
  std::uint32_t rounds = 0;  ///< all phases
  double total_s = 0.0;      ///< first call to last, replay glue included
};

/// Replays the dense `drr` pipeline for spec.aggregate (max or ave) on
/// the complete graph with the default DrrGossipConfig, as api::run
/// executes it: same root seed, stream tags, scenario and round clock.
[[nodiscard]] DenseTrace replay_dense(const drrg::api::RunSpec& spec,
                                      std::span<const double> values);

/// Empty when the replay matches `report` exactly (per-phase counters,
/// rounds, forest shape and value); otherwise what differs.
[[nodiscard]] std::string compare(const DenseTrace& trace,
                                  const drrg::api::RunReport& report);

struct ChordTrace {
  double overlay_s = 0.0;    ///< ChordOverlay constructor
  double links_s = 0.0;      ///< overlay_graph
  double local_drr_s = 0.0;  ///< run_local_drr on the overlay links
  drrg::sim::Counters local_drr;
};

/// Replays what `chord-drr` does before its routed phases: the overlay
/// build, its link graph and Phase I (Local-DRR).  The routed phases have
/// no public entry point; their cost is RunReport.phases.
[[nodiscard]] ChordTrace replay_chord(const drrg::api::RunSpec& spec);

[[nodiscard]] std::string compare(const ChordTrace& trace,
                                  const drrg::api::RunReport& report);

}  // namespace perfbench
