// Golden determinism tests: the bit-identity contract of the flat-core
// engine rewrite.
//
// The checksums below were generated from the PRE-rewrite tree (generic
// Network-only hot path, per-round queue allocation, eager per-node RNGs)
// and must keep matching forever: the pooled-queue engine, the flat
// fault-free executors, the CSR topology view and the intra-run fan-outs
// are required to be *observationally invisible*.  Four families:
//
//   * kPreRewriteGoldens -- bit-identical to the pre-rewrite binary (all
//     complete-topology runs, plus every faulty run, which exercises the
//     generic engine path);
//   * kExplicitTopologyGoldens -- pinned at the introduction of the
//     Phase III member relay + diameter-scaled budget (that feature
//     deliberately changed explicit-substrate traffic); they guard the
//     behavior from here on;
//   * sparse_engine_goldens -- pinned when chord-drr moved off its bespoke
//     RoutedTransport onto the shared engine and the sparse pipeline
//     opened to explicit substrates: hop-by-hop expansion changed that
//     family's traffic by design, and these checksums freeze it;
//   * phase3_path_goldens -- pinned before the dense and routed pipelines
//     shared one Gossip-max and one push-sum protocol, on the Phase III
//     carrier paths no other family reaches.
//
// Every sweep is additionally checked at --threads 1/4/8 (and the median
// bisection at intra_threads 1/4): any divergence is a scheduling leak.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/report_hash.hpp"
#include "support/parallel.hpp"

namespace drrg {
namespace {

struct GoldenCase {
  const char* name;
  const char* algo;
  std::uint64_t expected;
  api::RunSpec spec;
};

api::RunSpec spec_of(std::uint32_t n, api::Aggregate agg, std::uint64_t seed) {
  api::RunSpec s;
  s.n = n;
  s.aggregate = agg;
  s.seed = seed;
  return s;
}

/// The pre-rewrite pins: complete topology and/or faulty schedules.
std::vector<GoldenCase> pre_rewrite_goldens() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"drr_ave_complete", "drr", 0x3f2eb88241b9e20fULL,
                 spec_of(256, api::Aggregate::kAve, 77)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_count_faulty", "drr", 0xb942627d51402357ULL,
                 spec_of(256, api::Aggregate::kCount, 42)};
    c.spec.faults = sim::FaultSchedule{0.05, 0.2, {{8, 0.05}}};
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_median_crash", "drr", 0xbc6c9034675e67b9ULL,
                 spec_of(128, api::Aggregate::kMedian, 9)};
    c.spec.faults.crash_fraction = 0.3;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_rank_complete", "drr", 0x5f79acccb0b08cceULL,
                 spec_of(256, api::Aggregate::kRank, 11)};
    c.spec.rank_threshold = 50.0;
    cases.push_back(c);
  }
  {
    GoldenCase c{"uniform_ave_lossy", "uniform", 0xd46d45a0b23c1c08ULL,
                 spec_of(256, api::Aggregate::kAve, 3)};
    c.spec.faults.loss_prob = 0.05;
    cases.push_back(c);
  }
  {
    GoldenCase c{"efficient_max", "efficient", 0x15ba9600b576e794ULL,
                 spec_of(256, api::Aggregate::kMax, 13)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"pairwise_ave", "pairwise", 0x153b26bb62341637ULL,
                 spec_of(256, api::Aggregate::kAve, 17)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"extrema_count_lossy", "extrema", 0x2b89a66114d3e330ULL,
                 spec_of(256, api::Aggregate::kCount, 19)};
    c.spec.faults.loss_prob = 0.1;
    cases.push_back(c);
  }
  {
    GoldenCase c{"chord_uniform_ave_crash", "chord-uniform", 0x4fd1c788c8ac7a21ULL,
                 spec_of(256, api::Aggregate::kAve, 23)};
    c.spec.faults.crash_fraction = 0.1;
    cases.push_back(c);
  }
  return cases;
}

/// Explicit-substrate pins (member relay + diameter budget era).
std::vector<GoldenCase> explicit_topology_goldens() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"drr_max_chord_ring", "drr", 0x31ede523ddd5adb2ULL,
                 spec_of(256, api::Aggregate::kMax, 7)};
    c.spec.topology.kind = sim::TopologyKind::kChordRing;
    c.spec.faults.loss_prob = 0.1;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_leader_regular", "drr", 0x0f07a96dcd35f2b3ULL,
                 spec_of(256, api::Aggregate::kLeader, 5)};
    c.spec.topology.kind = sim::TopologyKind::kRandomRegular;
    c.spec.topology.degree = 8;
    cases.push_back(c);
  }
  return cases;
}

/// Sparse-pipeline pins, recorded at the engine port of chord-drr (the
/// RoutedTransport deletion deliberately changed this family's traffic;
/// these pin the hop-by-hop behavior from here on, thread-swept like all
/// the others).
std::vector<GoldenCase> sparse_engine_goldens() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"chord_drr_max_complete", "chord-drr", 0x3b9ad6d2d27bfd9aULL,
                 spec_of(256, api::Aggregate::kMax, 7)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"chord_drr_ave_full_schedule", "chord-drr", 0x92ecd35dd494f817ULL,
                 spec_of(256, api::Aggregate::kAve, 23)};
    c.spec.faults = sim::FaultSchedule{0.05, 0.1, {{8, 0.05}}};
    cases.push_back(c);
  }
  {
    // Large-n pin for the flattened routed hot path (finger-table binary
    // search, cached owners, crash-free dispatch): recorded just before
    // that rewrite, so it freezes the pre-flattening traffic at a size
    // where every fast-path branch is exercised.
    GoldenCase c{"chord_drr_ave_full_schedule_4096", "chord-drr",
                 0xd54322ee964b463fULL, spec_of(4096, api::Aggregate::kAve, 23)};
    c.spec.faults = sim::FaultSchedule{0.05, 0.1, {{8, 0.05}}};
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_sparse_grid_ave", "drr", 0x8954db044cb19e27ULL,
                 spec_of(240, api::Aggregate::kAve, 31)};
    c.spec.topology.kind = sim::TopologyKind::kGrid2d;
    c.spec.pipeline = api::Pipeline::kSparse;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_sparse_regular_max_churn", "drr", 0x6817253a138bafbfULL,
                 spec_of(256, api::Aggregate::kMax, 5)};
    c.spec.topology.kind = sim::TopologyKind::kRandomRegular;
    c.spec.topology.degree = 8;
    c.spec.pipeline = api::Pipeline::kSparse;
    c.spec.faults.churn = {{20, 0.1}};
    cases.push_back(c);
  }
  return cases;
}

/// Phase III path pins, recorded before the dense and routed pipelines
/// shared one Gossip-max and one push-sum protocol: each covers a carrier
/// path that no other checksum reaches (routed push-sum under per-hop
/// loss and latency, the armed hop carry-ack, stranded routes and
/// perimeter detours on a crashed torus, and the dense push-sum ack
/// deadline under event-time latency).
std::vector<GoldenCase> phase3_path_goldens() {
  sim::LatencyModel uniform_0_4;
  uniform_0_4.kind = sim::LatencyModel::Kind::kUniform;
  uniform_0_4.max_delay = 4;
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"chord_drr_ave_loss_latency", "chord-drr", 0x9d265ff44d1c41c3ULL,
                 spec_of(256, api::Aggregate::kAve, 41)};
    c.spec.faults.loss_prob = 0.05;
    c.spec.faults.latency = uniform_0_4;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_sparse_grid_ave_carry_ack", "drr", 0xf506a291cb2c8fa8ULL,
                 spec_of(256, api::Aggregate::kAve, 43)};
    c.spec.topology.kind = sim::TopologyKind::kGrid2d;
    c.spec.pipeline = api::Pipeline::kSparse;
    c.spec.faults.loss_prob = 0.01;
    SparseGossipConfig cfg;
    cfg.push_sum.hop_carry_ack = true;
    c.spec.config = cfg;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_sparse_torus_ave_crash", "drr", 0xa328a7ccf1e4e0b9ULL,
                 spec_of(256, api::Aggregate::kAve, 47)};
    c.spec.topology.kind = sim::TopologyKind::kGrid2d;
    c.spec.topology.torus = true;
    c.spec.pipeline = api::Pipeline::kSparse;
    c.spec.faults.crash_fraction = 0.05;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_ave_latency_crash", "drr", 0x5914ff7f6b17f523ULL,
                 spec_of(256, api::Aggregate::kAve, 53)};
    c.spec.faults.latency = uniform_0_4;
    c.spec.faults.crash_fraction = 0.1;
    cases.push_back(c);
  }
  return cases;
}

void check_case(const GoldenCase& c) {
  const auto t1 = api::run_trials(c.algo, c.spec, 3, 1);
  const std::uint64_t h1 = api::sweep_checksum(t1);
  EXPECT_EQ(h1, c.expected) << c.name << ": golden drift (0x" << std::hex << h1 << ")";
  for (const unsigned threads : {4u, 8u}) {
    const auto ht = api::sweep_checksum(api::run_trials(c.algo, c.spec, 3, threads));
    EXPECT_EQ(ht, h1) << c.name << ": thread-count divergence at " << threads;
  }
}

TEST(GoldenDeterminism, PreRewriteSweepsAreBitIdentical) {
  for (const GoldenCase& c : pre_rewrite_goldens()) check_case(c);
}

TEST(GoldenDeterminism, ExplicitTopologySweepsAreBitIdentical) {
  for (const GoldenCase& c : explicit_topology_goldens()) check_case(c);
}

TEST(GoldenDeterminism, SparseEngineSweepsAreBitIdentical) {
  for (const GoldenCase& c : sparse_engine_goldens()) check_case(c);
}

TEST(GoldenDeterminism, PhaseThreePathSweepsAreBitIdentical) {
  for (const GoldenCase& c : phase3_path_goldens()) check_case(c);
}

TEST(GoldenDeterminism, GridSweepIsThreadCountInvariant) {
  api::RunSpec spec = spec_of(240, api::Aggregate::kAve, 31);
  spec.topology.kind = sim::TopologyKind::kGrid2d;
  const std::uint64_t h1 = api::sweep_checksum(api::run_trials("drr", spec, 3, 1));
  for (const unsigned threads : {4u, 8u})
    EXPECT_EQ(api::sweep_checksum(api::run_trials("drr", spec, 3, threads)), h1);
}

TEST(GoldenDeterminism, MedianIntraThreadsAreBitIdentical) {
  api::RunSpec spec = spec_of(128, api::Aggregate::kMedian, 5);
  const std::uint64_t inline_hash = api::report_checksum(api::run("drr", spec));
  spec.intra_threads = 4;
  EXPECT_EQ(api::report_checksum(api::run("drr", spec)), inline_hash);
  spec.intra_threads = 0;  // all cores
  EXPECT_EQ(api::report_checksum(api::run("drr", spec)), inline_hash);
}

// Intra-round sharding (engine-level, kShardable protocols, batches past
// the activation floor) must be byte-invisible: the same run hashed at
// intra_threads 1/4/8/0 on a batch size that actually activates the
// sharded scan and delivery paths (n >= 2048), with loss + crash so the
// serial drop pass and the tag merge are both exercised.
TEST(GoldenDeterminism, ShardedEngineIsIntraThreadInvariant) {
  for (const api::Aggregate agg : {api::Aggregate::kAve, api::Aggregate::kMax}) {
    api::RunSpec spec = spec_of(8192, agg, 7);
    spec.faults.loss_prob = 0.05;
    spec.faults.crash_fraction = 0.1;
    const std::uint64_t serial = api::report_checksum(api::run("uniform", spec));
    for (const unsigned intra : {4u, 8u, 0u}) {
      spec.intra_threads = intra;
      EXPECT_EQ(api::report_checksum(api::run("uniform", spec)), serial)
          << "agg " << static_cast<int>(agg) << " intra_threads " << intra;
    }
  }
}

// The flat fault-free executors must agree with the generic engine path
// byte for byte.  A vanishing loss probability forces the engine path
// (fault_free() is false) while leaving every delivery intact -- the loss
// stream feeds nothing else -- so the pair must agree on every substrate,
// phase by phase.
void expect_counters_eq(const sim::Counters& a, const sim::Counters& b,
                        const std::string& where) {
  EXPECT_EQ(a.sent, b.sent) << where;
  EXPECT_EQ(a.delivered, b.delivered) << where;
  EXPECT_EQ(a.lost, b.lost) << where;
  EXPECT_EQ(a.bits, b.bits) << where;
  EXPECT_EQ(a.rounds, b.rounds) << where;
}

TEST(GoldenDeterminism, FlatExecutorsMatchEnginePath) {
  using sim::TopologyKind;
  const std::vector<TopologyKind> all = {TopologyKind::kComplete, TopologyKind::kChordRing,
                                         TopologyKind::kRandomRegular,
                                         TopologyKind::kGrid2d};
  struct Input {
    const char* algo;
    api::Aggregate agg;
    std::vector<TopologyKind> topologies;
    api::Pipeline pipeline = api::Pipeline::kDense;
  };
  // Every drr aggregate whose pipeline takes a different set of flat
  // executors; extrema, which runs the same convergecast and Gossip-max
  // protocols on min-vectors; the group-merge baseline's Phase III; and
  // the sparse pipelines, the only users of the simultaneous-children
  // broadcast.
  const Input inputs[] = {
      {"drr", api::Aggregate::kAve, all},
      {"drr", api::Aggregate::kMax, all},
      {"drr", api::Aggregate::kMin, all},
      {"drr", api::Aggregate::kSum, all},
      {"drr", api::Aggregate::kCount, all},
      {"drr", api::Aggregate::kRank, all},
      {"extrema", api::Aggregate::kCount, all},
      {"extrema", api::Aggregate::kSum, all},
      {"efficient", api::Aggregate::kMax, all},
      {"efficient", api::Aggregate::kAve, all},
      {"drr", api::Aggregate::kMax, {TopologyKind::kGrid2d}, api::Pipeline::kSparse},
      {"drr", api::Aggregate::kAve, {TopologyKind::kGrid2d}, api::Pipeline::kSparse},
      {"chord-drr", api::Aggregate::kAve, {TopologyKind::kComplete}},
  };
  for (const Input& in : inputs) {
    for (const TopologyKind kind : in.topologies) {
      api::RunSpec flat = spec_of(256, in.agg, 97);
      flat.topology.kind = kind;
      flat.pipeline = in.pipeline;
      flat.rank_threshold = 50.0;
      api::RunSpec engine = flat;
      engine.faults.loss_prob = 1e-300;  // engine path, zero effective loss
      const api::RunReport a = api::run(in.algo, flat);
      const api::RunReport b = api::run(in.algo, engine);
      const std::string where = std::string(in.algo) + "/" +
                                std::string(api::to_string(in.agg)) + " (" +
                                std::string(api::to_string(in.pipeline)) + ") on " +
                                std::string(sim::to_string(kind));
      ASSERT_TRUE(a.ok() && b.ok()) << where << ": " << a.error << b.error;
      EXPECT_EQ(a.value, b.value) << where;
      EXPECT_EQ(a.consensus, b.consensus) << where;
      EXPECT_EQ(a.rounds, b.rounds) << where;
      expect_counters_eq(a.cost, b.cost, where + " total");
      expect_counters_eq(a.phases.drr, b.phases.drr, where + " drr");
      expect_counters_eq(a.phases.convergecast, b.phases.convergecast,
                         where + " convergecast");
      expect_counters_eq(a.phases.root_broadcast, b.phases.root_broadcast,
                         where + " root_broadcast");
      expect_counters_eq(a.phases.gossip, b.phases.gossip, where + " gossip");
      expect_counters_eq(a.phases.spread, b.phases.spread, where + " spread");
      expect_counters_eq(a.phases.value_broadcast, b.phases.value_broadcast,
                         where + " value_broadcast");
      EXPECT_EQ(a.forest.num_trees, b.forest.num_trees) << where;
      EXPECT_EQ(a.forest.max_tree_size, b.forest.max_tree_size) << where;
      EXPECT_EQ(a.forest.max_tree_height, b.forest.max_tree_height) << where;
      EXPECT_EQ(a.forest.largest_tree_root, b.forest.largest_tree_root) << where;
    }
  }
}

// CSR flat-view sampling must agree with a naive neighbor-span walk over
// every explicit topology family.
TEST(GoldenDeterminism, CsrSamplingMatchesNaiveNeighborSampling) {
  const std::uint32_t n = 192;
  for (const char* name : {"chord-ring", "random-regular", "grid", "torus"}) {
    const auto spec = sim::topology_from_name(name);
    ASSERT_TRUE(spec.has_value()) << name;
    const sim::Topology t = sim::make_topology(*spec, n, 13);
    ASSERT_NE(t.graph(), nullptr) << name;
    Rng csr_rng{99};
    Rng naive_rng{99};
    for (int i = 0; i < 4000; ++i) {
      const NodeId caller = static_cast<NodeId>(i % n);
      const NodeId fast = t.sample_peer(caller, n, csr_rng);
      const auto nbrs = t.graph()->neighbors(caller);
      const NodeId naive =
          nbrs.empty() ? caller : nbrs[naive_rng.next_below(nbrs.size())];
      ASSERT_EQ(fast, naive) << name << " caller " << caller;
      ASSERT_EQ(t.degree(caller), nbrs.size()) << name;
    }
  }
}

// Satellite regression: diameter-heavy substrates now converge (member
// relay + diameter-scaled Phase III budget); the knob disables cleanly.
// Extrema count takes the same budget: its min-vector must reach every
// root, so the estimate equals the complete-topology one (same draws).
TEST(DiameterBudget, GridAndTorusReachConsensus) {
  const api::RunReport extrema_complete =
      api::run("extrema", spec_of(256, api::Aggregate::kCount, 42));
  ASSERT_TRUE(extrema_complete.ok()) << extrema_complete.error;
  for (const bool torus : {false, true}) {
    const char* where = torus ? "torus" : "grid";
    api::RunSpec spec = spec_of(256, api::Aggregate::kAve, 42);
    spec.topology.kind = sim::TopologyKind::kGrid2d;
    spec.topology.torus = torus;
    const api::RunReport r = api::run("drr", spec);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.consensus) << where;
    EXPECT_LT(r.rel_error(), 0.1) << where;

    spec.aggregate = api::Aggregate::kCount;
    const api::RunReport e = api::run("extrema", spec);
    ASSERT_TRUE(e.ok()) << e.error;
    EXPECT_TRUE(e.consensus) << "extrema on " << where;
    EXPECT_EQ(e.value, extrema_complete.value) << "extrema on " << where;
  }
}

TEST(DiameterBudget, MultiplierScalesRounds) {
  api::RunSpec spec = spec_of(256, api::Aggregate::kAve, 42);
  spec.topology.kind = sim::TopologyKind::kGrid2d;
  DrrGossipConfig off;
  off.phase3_diameter_multiplier = 0.0;
  spec.config = off;
  const api::RunReport base = api::run("drr", spec);
  DrrGossipConfig big;
  big.phase3_diameter_multiplier = 2.0;
  spec.config = big;
  const api::RunReport scaled = api::run("drr", spec);
  ASSERT_TRUE(base.ok() && scaled.ok());
  EXPECT_GT(scaled.rounds, base.rounds);
  // The complete topology has diameter 1: the knob must be a no-op there.
  api::RunSpec complete_spec = spec_of(256, api::Aggregate::kAve, 42);
  const std::uint64_t plain = api::report_checksum(api::run("drr", complete_spec));
  complete_spec.config = big;
  EXPECT_EQ(api::report_checksum(api::run("drr", complete_spec)), plain);
}

// Satellite regression: parallel_map keeps first-error-by-index semantics
// with its per-worker (not per-task) error slots.
TEST(ParallelMap, FirstErrorByIndexIsRethrown) {
  try {
    (void)parallel_map(64, 8, [](std::size_t i) -> int {
      if (i == 7 || i == 23 || i == 51) throw std::runtime_error(std::to_string(i));
      return static_cast<int>(i);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
}

TEST(ParallelMap, SurvivingResultsAreOrdered) {
  const auto r = parallel_map(100, 8, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], i * i);
}

}  // namespace
}  // namespace drrg
