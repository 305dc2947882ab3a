// Experiment E15 -- empirical companion to Theorem 15 (the lower bound):
//
//   Any *address-oblivious* algorithm needs Omega(n log n) messages to
//   compute Max.  Uniform push gossip (Kempe) is address-oblivious, and
//   its measured messages-to-consensus fit c * n log n: the column
//   ao_msgs_per_nlog is flat while ao_msgs_per_n grows.
//
//   DRR-gossip is NON-address-oblivious and beats the bound: its column
//   drr_msgs_per_nloglog is flat, so the separation ao/drr grows with n
//   -- exactly the gap Theorem 15 proves unavoidable without addresses.
//
//   Karp et al. rumor spreading (also address-oblivious) needs only
//   Theta(n log log n) *transmissions*: the rumor column stays flat
//   against n log log n, demonstrating §5's second claim -- computing
//   aggregates is strictly harder than rumor spreading in the
//   address-oblivious model.

#include <benchmark/benchmark.h>

#include "aggregate/drr_gossip.hpp"
#include "baselines/uniform_gossip.hpp"
#include "bench_common.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 3;

void BM_AddressObliviousMax(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat msgs;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      const auto values = workload::make_values(n, seed);
      const auto r = uniform_push_max(n, values, seed);
      msgs.add(static_cast<double>(r.messages_to_consensus));
    }
  }
  state.counters["ao_msgs"] = msgs.mean();
  state.counters["ao_msgs_per_n"] = msgs.mean() / n;                      // grows ~ log n
  state.counters["ao_msgs_per_nlog"] = msgs.mean() / (n * log2_clamped(n));  // flat
}
BENCHMARK(BM_AddressObliviousMax)->RangeMultiplier(2)->Range(1 << 8, 1 << 17)->Iterations(1);

void BM_NonAddressObliviousMax(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat msgs;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      const auto values = workload::make_values(n, seed);
      const auto r = drr_gossip_max(n, values, seed);
      msgs.add(static_cast<double>(r.metrics.total().sent));
    }
  }
  state.counters["drr_msgs"] = msgs.mean();
  state.counters["drr_msgs_per_n"] = msgs.mean() / n;  // grows ~ log log n only
  state.counters["drr_msgs_per_nloglog"] = msgs.mean() / (n * loglog2_clamped(n));  // flat
}
BENCHMARK(BM_NonAddressObliviousMax)->RangeMultiplier(2)->Range(1 << 8, 1 << 17)->Iterations(1);

void BM_RumorSpreading(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat transmissions;
  double informed_rate = 0.0;
  for (auto _ : state) {
    int all = 0;
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      const auto r = karp_push_pull(n, seed);
      transmissions.add(static_cast<double>(r.transmissions));
      all += r.all_informed ? 1 : 0;
    }
    informed_rate = static_cast<double>(all) / kTrials;
  }
  state.counters["rumor_msgs"] = transmissions.mean();
  state.counters["rumor_msgs_per_n"] = transmissions.mean() / n;
  state.counters["rumor_msgs_per_nloglog"] =
      transmissions.mean() / (n * loglog2_clamped(n));  // flat
  state.counters["informed_rate"] = informed_rate;
}
BENCHMARK(BM_RumorSpreading)->RangeMultiplier(2)->Range(1 << 8, 1 << 17)->Iterations(1);

// The separation itself: address-oblivious aggregate messages over
// non-address-oblivious messages must grow ~ log n / log log n.
void BM_Separation(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  double ao = 0, drr = 0;
  for (auto _ : state) {
    for (std::uint64_t seed : workload::trial_seeds(kTrials)) {
      const auto values = workload::make_values(n, seed);
      ao += static_cast<double>(uniform_push_max(n, values, seed).messages_to_consensus);
      drr += static_cast<double>(drr_gossip_max(n, values, seed).metrics.total().sent);
    }
  }
  state.counters["ao_over_drr"] = ao / drr;
  state.counters["log_over_loglog"] = log2_clamped(n) / loglog2_clamped(n);
}
BENCHMARK(BM_Separation)->RangeMultiplier(4)->Range(1 << 8, 1 << 18)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
