// Experiment EA -- design ablation on the DRR probe budget.
//
// Algorithm 1 fixes the probe budget at log2(n) - 1.  This ablation sweeps
// the budget and shows why that choice is the sweet spot:
//   * fewer probes  -> more roots -> Phase III gossips over more nodes,
//     pushing Phase III messages towards Theta(n) with a larger constant
//     and wasting the message budget (at budget 1 the scheme degenerates
//     towards uniform gossip's n log n);
//   * more probes   -> Phase I itself costs more messages and rounds for
//     marginal reductions in the root count (the expected probe count per
//     node saturates at O(log log n) long before the budget is exhausted).
//
// Columns: trees, max tree size, Phase I messages, Phase III messages,
// total messages, end-to-end rounds -- all per budget.

#include <benchmark/benchmark.h>

#include "aggregate/drr_gossip.hpp"
#include "bench_common.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 5;
constexpr std::uint32_t kN = 8192;  // log2 = 13 -> paper budget 12

void BM_ProbeBudget(benchmark::State& state) {
  const auto budget = static_cast<std::uint32_t>(state.range(0));
  RunningStat trees, max_size, phase1, phase3, total, rounds;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      const auto values = workload::make_values(kN, seed);
      DrrGossipConfig cfg;
      cfg.drr.probe_budget = budget;
      const auto r = drr_gossip_max(kN, values, seed, {}, cfg);
      trees.add(r.forest.num_trees);
      max_size.add(r.forest.max_tree_size);
      phase1.add(static_cast<double>(r.metrics.drr.sent));
      phase3.add(static_cast<double>(r.metrics.gossip.sent));
      total.add(static_cast<double>(r.metrics.total().sent));
      rounds.add(r.rounds_total);
    }
  }
  state.counters["budget"] = budget;
  state.counters["trees"] = trees.mean();
  state.counters["max_tree_size"] = max_size.mean();
  state.counters["phase1_msgs_per_n"] = phase1.mean() / kN;
  state.counters["phase3_msgs_per_n"] = phase3.mean() / kN;
  state.counters["total_msgs_per_n"] = total.mean() / kN;
  state.counters["rounds"] = rounds.mean();
}
BENCHMARK(BM_ProbeBudget)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)  // the paper's log2(n) - 1
    ->Arg(26)  // 2 log2 n: over-probing
    ->Iterations(1);

// The companion ablation: how the budget choice feeds through to the
// Phase II/III time bound via the max tree size.
void BM_ProbeBudgetTreeShape(benchmark::State& state) {
  const auto budget = static_cast<std::uint32_t>(state.range(0));
  RunningStat size_max, height_max;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      RngFactory rngs{seed};
      DrrConfig cfg;
      cfg.probe_budget = budget;
      const DrrResult r = run_drr(kN, rngs, {}, cfg);
      size_max.add(r.forest.max_tree_size());
      height_max.add(r.forest.max_tree_height());
    }
  }
  state.counters["budget"] = budget;
  state.counters["maxsize_mean"] = size_max.mean();
  state.counters["maxheight_mean"] = height_max.mean();
  state.counters["log2_n"] = log2_clamped(kN);
}
BENCHMARK(BM_ProbeBudgetTreeShape)->Arg(1)->Arg(4)->Arg(12)->Arg(26)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
