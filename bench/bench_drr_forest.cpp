// Experiments E2/E3 -- Theorems 2 and 3:
//
//   Theorem 2: the DRR forest has O(n / log n) trees whp.  The exact
//   expectation is sum_i (i/n)^(log2(n)-1) ~ n / log2 n; the bench
//   reports trees / (n / log2 n) (flat, near 1) and the whp check
//   trees_max / (6 * E[trees]) (must stay below 1).
//
//   Theorem 3: every tree has O(log n) nodes whp.  The bench reports the
//   mean and max (over seeds) of the largest tree size, normalised by
//   log2 n (flat => O(log n)), plus the tree-height counterpart used by
//   Phase II's time bound.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.hpp"
#include "drr/drr.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 8;

void BM_DrrForestShape(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat trees, max_size, max_height;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      RngFactory rngs{seed};
      const DrrResult r = run_drr(n, rngs);
      trees.add(r.forest.num_trees());
      max_size.add(r.forest.max_tree_size());
      max_height.add(r.forest.max_tree_height());
    }
  }
  // E[#trees] = sum_{i<=n} (i/n)^d with d = probe budget: ~ n/(d+1).
  const double d = drr_probe_budget(n);
  const double expected_trees = static_cast<double>(n) / (d + 1.0);
  state.counters["trees_mean"] = trees.mean();
  state.counters["trees_over_pred"] = trees.mean() / expected_trees;   // ~1, flat
  state.counters["trees_whp_margin"] = trees.max() / (6.0 * expected_trees);  // < 1
  state.counters["maxsize_mean"] = max_size.mean();
  state.counters["maxsize_max"] = max_size.max();
  state.counters["maxsize_per_log2n"] = max_size.max() / log2_clamped(n);  // bounded
  state.counters["maxheight_max"] = max_height.max();
  state.counters["maxheight_per_log2n"] = max_height.max() / log2_clamped(n);
}
BENCHMARK(BM_DrrForestShape)->RangeMultiplier(2)->Range(1 << 8, 1 << 16)->Iterations(1);

// Distribution detail at one size: how heavy is the tree-size tail?
void BM_DrrTreeSizeTail(benchmark::State& state) {
  const std::uint32_t n = 1 << 13;
  double p50 = 0, p95 = 0, p100 = 0;
  for (auto _ : state) {
    std::vector<double> sizes;
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      RngFactory rngs{seed};
      const DrrResult r = run_drr(n, rngs);
      for (std::uint32_t s : r.forest.tree_sizes()) sizes.push_back(s);
    }
    std::sort(sizes.begin(), sizes.end());
    p50 = quantile_sorted(sizes, 0.50);
    p95 = quantile_sorted(sizes, 0.95);
    p100 = sizes.back();
  }
  state.counters["size_p50"] = p50;
  state.counters["size_p95"] = p95;
  state.counters["size_max"] = p100;
  state.counters["log2_n"] = log2_clamped(n);
}
BENCHMARK(BM_DrrTreeSizeTail)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
