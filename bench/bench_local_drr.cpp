// Experiments E11/E13 -- Theorems 11 and 13 (Local-DRR on arbitrary graphs):
//
//   Theorem 11: every Local-DRR tree has height O(log n) whp on ANY graph.
//   Column height_max_per_log2n (max over seeds / log2 n) must stay
//   bounded across graph families and sizes.
//
//   Theorem 13: the number of trees concentrates on sum_i 1/(d_i + 1).
//   Column trees_over_pred must sit near 1.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "bench_common.hpp"
#include "drr/local_drr.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"
#include "topology/builders.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 6;

Graph build_family(int family, std::uint32_t n, std::uint64_t seed) {
  switch (family) {
    case 0: return make_ring(n);
    case 1: {
      const auto side = static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n)));
      return make_grid(side, side, /*torus=*/true);
    }
    case 2: return make_random_regular(n, 8, seed);
    case 3: return make_erdos_renyi(n, 12.0 / n, seed);
    case 4: return make_chord_graph(n);
    case 5: return make_hypercube(ceil_log2(n));
    case 6: return make_small_world(n, 4, 0.2, seed);
    default: return make_preferential_attachment(n, 4, seed);
  }
}

const char* family_name(int family) {
  switch (family) {
    case 0: return "ring";
    case 1: return "torus";
    case 2: return "8-regular";
    case 3: return "erdos-renyi";
    case 4: return "chord";
    case 5: return "hypercube";
    case 6: return "small-world";
    default: return "pref-attach";
  }
}

void BM_LocalDrrShape(benchmark::State& state) {
  const int family = static_cast<int>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  RunningStat trees, height, msgs;
  double predicted = 0.0;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      const Graph g = build_family(family, n, seed);
      predicted = g.inverse_degree_plus_one_sum();
      RngFactory rngs{seed};
      const LocalDrrResult r = run_local_drr(g, rngs);
      trees.add(r.forest.num_trees());
      height.add(r.forest.max_tree_height());
      msgs.add(static_cast<double>(r.counters.sent) / static_cast<double>(g.edge_count()));
    }
  }
  state.SetLabel(family_name(family));
  state.counters["trees_mean"] = trees.mean();
  state.counters["trees_pred"] = predicted;
  state.counters["trees_over_pred"] = trees.mean() / predicted;
  state.counters["height_max"] = height.max();
  state.counters["height_max_per_log2n"] = height.max() / log2_clamped(n);
  state.counters["msgs_per_edge"] = msgs.mean();
}
BENCHMARK(BM_LocalDrrShape)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6, 7}, {1 << 10, 1 << 12, 1 << 14}})
    ->Iterations(1);

// Theorem 11's "any graph" includes adversarial shapes: the path is the
// worst standard case for chain formation.
void BM_LocalDrrPathHeight(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat height;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(12)) {
      RngFactory rngs{seed};
      const LocalDrrResult r = run_local_drr(make_path(n), rngs);
      height.add(r.forest.max_tree_height());
    }
  }
  state.counters["height_max"] = height.max();
  state.counters["height_max_per_log2n"] = height.max() / log2_clamped(n);
}
BENCHMARK(BM_LocalDrrPathHeight)->RangeMultiplier(4)->Range(1 << 10, 1 << 16)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
