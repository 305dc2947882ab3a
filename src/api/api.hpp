#pragma once
// drrg::api -- the uniform runner facade over every algorithm in the
// library.
//
// The library grew as ~10 free-function families (the DRR-gossip
// pipelines, four baselines, the §4 sparse/Chord variants), each with
// its own signature and result struct.  This layer gives all of them one
// vocabulary:
//
//   * Aggregate        -- what is being computed (Max .. Leader);
//   * RunSpec          -- one run's inputs: n, values (or a synthetic
//                         workload derived from the seed), faults, an
//                         optional per-algorithm config, and the
//                         aggregate (plus its rank threshold);
//   * RunReport        -- one run's outputs: computed value, exact
//                         ground truth, errors, consensus, and the
//                         message/round accounting (per-phase where the
//                         algorithm has phases);
//   * Registry         -- see api/registry.hpp: named algorithms with
//                         declared aggregate support and an
//                         invoke(RunSpec) -> RunReport adapter.
//
// The CLI, the bench harnesses, the examples and the matrix tests all
// sit on this seam, so a newly registered algorithm (or aggregate)
// becomes visible to every consumer at once.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "aggregate/extrema.hpp"
#include "aggregate/quantile.hpp"
#include "aggregate/sparse.hpp"
#include "aggregate/types.hpp"
#include "baselines/chord_uniform.hpp"
#include "baselines/efficient_gossip.hpp"
#include "baselines/pairwise_averaging.hpp"
#include "baselines/uniform_gossip.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"
#include "support/workload.hpp"

namespace drrg::api {

/// The aggregate families of the paper's abstract (§1), plus the derived
/// Leader election of §6.
enum class Aggregate : std::uint8_t {
  kMax,
  kMin,
  kAve,
  kSum,
  kCount,
  kRank,
  kMedian,
  kLeader,
};

/// Every aggregate, in a fixed order (for matrix enumeration).
inline constexpr Aggregate kAllAggregates[] = {
    Aggregate::kMax,  Aggregate::kMin,    Aggregate::kAve,    Aggregate::kSum,
    Aggregate::kCount, Aggregate::kRank,  Aggregate::kMedian, Aggregate::kLeader,
};

[[nodiscard]] std::string_view to_string(Aggregate agg) noexcept;
[[nodiscard]] std::optional<Aggregate> aggregate_from_name(std::string_view name) noexcept;

/// Which pipeline the `drr` algorithm family runs.
enum class Pipeline : std::uint8_t {
  kDense,   ///< Algorithms 7-8: random phone call pipelines (default)
  kSparse,  ///< §4: Local-DRR + tree aggregation + routed root gossip on
            ///< the spec's explicit substrate (accurate sparse Ave)
};

[[nodiscard]] std::string_view to_string(Pipeline pipeline) noexcept;
[[nodiscard]] std::optional<Pipeline> pipeline_from_name(std::string_view name) noexcept;

/// How a run executes: in the lockstep simulator (one process, global
/// round clock -- the default, and the substrate of every published
/// number), or as n real OS processes exchanging UDP datagrams on
/// localhost (the drrg_node runtime behind the same facade).
enum class Transport : std::uint8_t {
  kSim,  ///< sim::Network lockstep simulator (deterministic, any n)
  kUdp,  ///< forked drrg_node processes over 127.0.0.1 UDP sockets
};

[[nodiscard]] std::string_view to_string(Transport transport) noexcept;
[[nodiscard]] std::optional<Transport> transport_from_name(std::string_view name) noexcept;

/// Per-algorithm configuration.  std::monostate selects the algorithm's
/// defaults (the paper's parameters); otherwise the variant must hold the
/// config type of the algorithm being invoked, else the run is rejected.
using AlgorithmConfig =
    std::variant<std::monostate, DrrGossipConfig, UniformPushMaxConfig,
                 UniformPushSumConfig, PairwiseConfig, EfficientGossipConfig,
                 ExtremaConfig, QuantileConfig, SparseGossipConfig, ChordUniformConfig>;

/// Everything one run needs.  Deterministic: two identical RunSpecs
/// produce identical RunReports.
struct RunSpec {
  std::uint32_t n = 4096;
  Aggregate aggregate = Aggregate::kAve;
  std::uint64_t seed = 42;
  /// Fault schedule: loss + start-time crashes + scheduled mid-run churn.
  sim::FaultSchedule faults{};
  /// Communication substrate (complete graph = the paper's model).
  /// Randomized topologies are materialised per run from the spec's seed.
  sim::TopologySpec topology{};
  /// `drr` only: dense (default) or the §4 sparse pipeline, which
  /// requires an explicit topology (Local-DRR runs on its CSR adjacency
  /// and Phase III routes on it hop by hop).
  Pipeline pipeline = Pipeline::kDense;
  /// Execution substrate: the lockstep simulator (default), or -- for
  /// algorithms that declare it -- real forked processes over UDP.
  Transport transport = Transport::kSim;
  /// kUdp only: first UDP port (node v binds udp_port_base + v);
  /// 0 = probe for a free range.
  std::uint16_t udp_port_base = 0;
  /// kUdp only: explicit "host:port,host:port,..." list, position i =
  /// node i (overrides udp_port_base; must be loopback addresses for the
  /// fork-based runner).  Empty = the udp_port_base + v scheme.
  std::string udp_seed_list;
  /// kUdp only: datagram-level chaos spec in the scenario_text grammar
  /// ("drop:0.1,dup:0.05,reorder:0.2/4,cut:24@500-4000"); empty = none.
  std::string udp_chaos;
  /// kUdp only: wall-clock milliseconds per scheduled round, in
  /// [1, net::kMaxRoundMs] (else api::run rejects the spec).  Every
  /// churn/block-crash death, join birth, partition cut and latency draw
  /// of the fault schedule lands on the real runtime at
  /// round * udp_round_ms.
  std::int64_t udp_round_ms = 250;
  /// Per-node inputs.  Empty = synthesize workload::make_values(n, seed,
  /// workload_range) (algorithms requiring positive inputs substitute
  /// workload::positive_range() when the range admits values <= 0).
  std::vector<double> values;
  workload::ValueRange workload_range{};
  /// Threshold x of the Rank aggregate: |{ alive v : values[v] < x }|.
  double rank_threshold = 0.0;
  /// Worker threads for *intra-run* fan-outs -- through the facade that
  /// is the Median bisection's Min/Max/Count bracket (the direct-call
  /// drr_gossip_histogram API takes the same knob as a parameter).
  /// 1 = inline, 0 = all hardware cores; bit-identical for any value.
  /// run_trials threads its leftover budget through here, so nesting
  /// under the trial executor never oversubscribes: outer workers x
  /// intra threads <= the requested total.
  unsigned intra_threads = 1;
  AlgorithmConfig config{};
};

/// Uniform result of one run, whichever algorithm produced it.
struct RunReport {
  std::string algorithm;
  Aggregate aggregate = Aggregate::kAve;
  std::uint32_t n = 0;
  std::uint64_t seed = 0;

  /// False iff the algorithm does not implement the requested aggregate.
  bool supported = true;
  /// Non-empty when the run could not produce a value (unsupported pair,
  /// config type mismatch, or an exception from the algorithm).
  std::string error;

  double value = 0.0;  ///< the consensus value the algorithm computed
  double truth = 0.0;  ///< exact aggregate over the participating nodes
  bool consensus = false;
  std::uint32_t rounds = 0;
  sim::Counters cost;    ///< whole-run message/round accounting
  PhaseMetrics phases;   ///< per-phase breakdown (zeroed where the
                         ///< algorithm has no DRR-gossip phase structure)
  ForestSummary forest;  ///< Phase I forest shape (DRR family only)
  /// Final-survivor mask: nodes alive after the whole fault schedule
  /// (empty when the run has no crashes to track).
  std::vector<bool> participating;

  [[nodiscard]] bool ok() const noexcept { return supported && error.empty(); }
  [[nodiscard]] double abs_error() const noexcept;
  /// abs_error / max(1, |truth|): the guarded relative error used by the
  /// failure benches (finite even when the truth is near zero).
  [[nodiscard]] double rel_error() const noexcept;
};

/// Validates a fault schedule at the facade seam: probabilities and
/// fractions must lie in [0, 1] (event fractions in (0, 1)), churn/join
/// events may not fire at round 0 (start-time crashes belong in
/// crash_fraction; a round-0 join is a node that was simply present),
/// partition heals must follow their cuts, and latency windows must be
/// ordered.  Returns the first violation as a message, nullopt when the
/// schedule is well-formed.  api::run rejects invalid schedules with this
/// message instead of letting fault_timeline mis-cast a negative or
/// saturated fraction.
[[nodiscard]] std::optional<std::string> validate_faults(
    const sim::FaultSchedule& faults);

}  // namespace drrg::api
