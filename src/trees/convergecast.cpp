#include "trees/convergecast.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "support/mathutil.hpp"
#include "trees/convergecast_protocol.hpp"

namespace drrg {

ConvergecastResult run_convergecast(const Forest& forest, std::span<const double> values,
                                    ConvergecastOp op, const RngFactory& rngs,
                                    const sim::Scenario& scenario, ConvergecastConfig config) {
  const std::uint32_t n = forest.size();
  if (values.size() < n) throw std::invalid_argument("run_convergecast: values too short");

  std::uint32_t max_rounds = config.max_rounds;
  if (max_rounds == 0) {
    // height rounds at delta = 0; each level adds a geometric number of
    // retries under loss (delta < 1/8), so a 8x + 64 slack is far beyond
    // the whp horizon.
    max_rounds = 8 * (forest.max_tree_height() + 2) + 64;
  }
  // (value, weight) pairs: Algorithm 3's covsum vector; kMax/kMin fold
  // only the value and leave the weight at 1.
  struct Pair {
    double a = 0.0;
    double b = 0.0;
  };
  auto fold = [op](Pair& into, const Pair& from) {
    switch (op) {
      case ConvergecastOp::kMax: into.a = std::max(into.a, from.a); break;
      case ConvergecastOp::kMin: into.a = std::min(into.a, from.a); break;
      case ConvergecastOp::kSum:
        into.a += from.a;
        into.b += from.b;
        break;
    }
  };
  const detail::ConvergecastRun<Pair> run = detail::run_convergecast_of<Pair>(
      forest, [values](NodeId v) { return Pair{values[v], 1.0}; }, fold, 64 + address_bits(n), max_rounds, rngs, scenario,
      derive_seed(0xcc, config.stream_tag));

  ConvergecastResult result;
  result.aggregate.resize(n);
  result.weight.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    result.aggregate[v] = run.node[v].acc.a;
    result.weight[v] = run.node[v].acc.b;
  }
  result.counters = run.counters;
  result.rounds = run.rounds;
  result.complete = run.complete;
  return result;
}

}  // namespace drrg
