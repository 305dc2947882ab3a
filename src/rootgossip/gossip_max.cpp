#include "rootgossip/gossip_max.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "rootgossip/gossip_max_protocol.hpp"
#include "rootgossip/ordered_key.hpp"
#include "support/mathutil.hpp"
#include "support/scratch.hpp"

namespace drrg {

namespace {

// Pooled key staging (support/scratch.hpp); tags 20+ keep these disjoint
// from the pipelines' slots.
enum ScratchTag : int { kScratchKeys = 20 };

}  // namespace

GossipMaxResult run_gossip_max(const Forest& forest,
                               std::span<const std::uint64_t> init_key,
                               const RngFactory& rngs, const sim::Scenario& scenario,
                               GossipMaxConfig config) {
  const std::uint32_t n = forest.size();
  if (init_key.size() < n) throw std::invalid_argument("run_gossip_max: keys too short");

  std::vector<std::uint64_t> key(n, kKeyBottom);
  for (NodeId r : forest.roots()) key[r] = init_key[r];
  auto max_of = [](std::uint64_t& into, std::uint64_t from) { into = std::max(into, from); };
  return detail::run_gossip_max_of(forest, std::move(key), max_of, 64 + 2 * address_bits(n),
                                   rngs, scenario, config,
                                   derive_seed(0x3099, config.stream_tag));
}

GossipMaxResult gossip_max_of_values(const Forest& forest, std::span<const double> value,
                                     std::vector<double>& root_value,
                                     const RngFactory& rngs, const sim::Scenario& scenario,
                                     const GossipMaxConfig& config) {
  std::vector<std::uint64_t>& keys = support::scratch_buffer<std::uint64_t, kScratchKeys>();
  keys.assign(forest.size(), kKeyBottom);
  for (NodeId r : forest.roots()) keys[r] = encode_ordered(value[r]);
  GossipMaxResult gm = run_gossip_max(forest, keys, rngs, scenario, config);
  root_value.assign(forest.size(), 0.0);
  for (NodeId r : forest.roots()) root_value[r] = decode_ordered(gm.key[r]);
  return gm;
}

GossipMaxResult run_data_spread(const Forest& forest, NodeId source_root,
                                std::uint64_t key, const RngFactory& rngs,
                                const sim::Scenario& scenario, GossipMaxConfig config) {
  if (!forest.is_root(source_root))
    throw std::invalid_argument("run_data_spread: source is not a root");
  std::vector<std::uint64_t> init(forest.size(), kKeyBottom);
  init[source_root] = key;
  return run_gossip_max(forest, init, rngs, scenario, config);
}

double fraction_of_roots_with_key(const Forest& forest,
                                  std::span<const std::uint64_t> keys,
                                  std::uint64_t key) {
  if (forest.roots().empty()) return 0.0;
  std::size_t holders = 0;
  for (NodeId r : forest.roots())
    if (keys[r] == key) ++holders;
  return static_cast<double>(holders) / static_cast<double>(forest.roots().size());
}

}  // namespace drrg
