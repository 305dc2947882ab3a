// Experiment E14 -- Theorem 14 / §4 on Chord:
//
//   DRR-gossip (Local-DRR + routed root gossip): O(log^2 n) time and
//   O(n log n) messages whp.
//   Uniform gossip routed over the same overlay: O(log^2 n) time and
//   O(n log^2 n) messages.
//
// Columns: rounds_per_log2sq (flat => O(log^2 n)); msgs_per_nlog (flat
// for DRR-gossip), msgs_per_nlogsq (flat for uniform gossip); and the
// headline message ratio uniform/DRR, which must GROW ~ log n.

#include <benchmark/benchmark.h>

#include "aggregate/sparse.hpp"
#include "baselines/chord_uniform.hpp"
#include "bench_common.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 3;

void BM_ChordDrrGossipMax(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat rounds, msgs;
  int ok = 0;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      ChordOverlay chord{n, seed};
      const Graph links = overlay_graph(chord);
      const auto values = workload::make_values(n, seed);
      const auto r = sparse_drr_gossip_max(chord, links, values, seed);
      rounds.add(r.rounds_total);
      msgs.add(static_cast<double>(r.metrics.total().sent));
      ok += r.consensus ? 1 : 0;
    }
  }
  const double lg = log2_clamped(n);
  state.counters["rounds"] = rounds.mean();
  state.counters["rounds_per_log2sq"] = rounds.mean() / (lg * lg);
  state.counters["msgs"] = msgs.mean();
  state.counters["msgs_per_nlog"] = msgs.mean() / (n * lg);
  state.counters["msgs_per_nlogsq"] = msgs.mean() / (n * lg * lg);
  state.counters["consensus_rate"] = static_cast<double>(ok) / kTrials;
}
BENCHMARK(BM_ChordDrrGossipMax)->RangeMultiplier(2)->Range(1 << 9, 1 << 13)->Iterations(1);

void BM_ChordUniformGossipMax(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat rounds, msgs;
  int ok = 0;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      ChordOverlay chord{n, seed};
      const auto values = workload::make_values(n, seed);
      const auto r = chord_uniform_push_max(chord, values, seed);
      rounds.add(r.rounds);
      msgs.add(static_cast<double>(r.counters.sent));
      ok += r.consensus ? 1 : 0;
    }
  }
  const double lg = log2_clamped(n);
  state.counters["rounds"] = rounds.mean();
  state.counters["rounds_per_log2sq"] = rounds.mean() / (lg * lg);
  state.counters["msgs"] = msgs.mean();
  state.counters["msgs_per_nlog"] = msgs.mean() / (n * lg);
  state.counters["msgs_per_nlogsq"] = msgs.mean() / (n * lg * lg);
  state.counters["consensus_rate"] = static_cast<double>(ok) / kTrials;
}
BENCHMARK(BM_ChordUniformGossipMax)->RangeMultiplier(2)->Range(1 << 9, 1 << 13)->Iterations(1);

// Head-to-head ratio at each size: uniform messages / DRR messages should
// grow with log n (the §4 headline).
void BM_ChordMessageRatio(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  double drr_msgs = 0, uni_msgs = 0;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      ChordOverlay chord{n, seed};
      const Graph links = overlay_graph(chord);
      const auto values = workload::make_values(n, seed);
      drr_msgs += static_cast<double>(
          sparse_drr_gossip_max(chord, links, values, seed).metrics.total().sent);
      uni_msgs +=
          static_cast<double>(chord_uniform_push_max(chord, values, seed).counters.sent);
    }
  }
  state.counters["uniform_over_drr"] = uni_msgs / drr_msgs;
  state.counters["log2_n"] = log2_clamped(n);
}
BENCHMARK(BM_ChordMessageRatio)->RangeMultiplier(4)->Range(1 << 9, 1 << 13)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
