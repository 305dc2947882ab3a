#include "api/registry.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace drrg::api {

namespace {

constexpr std::string_view kAggregateNames[] = {
    "max", "min", "ave", "sum", "count", "rank", "median", "leader",
};

}  // namespace

std::string_view to_string(Aggregate agg) noexcept {
  return kAggregateNames[static_cast<std::size_t>(agg)];
}

std::optional<Aggregate> aggregate_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < std::size(kAggregateNames); ++i)
    if (kAggregateNames[i] == name) return static_cast<Aggregate>(i);
  return std::nullopt;
}

std::string_view to_string(Pipeline pipeline) noexcept {
  return pipeline == Pipeline::kSparse ? "sparse" : "dense";
}

std::optional<Pipeline> pipeline_from_name(std::string_view name) noexcept {
  if (name == "dense") return Pipeline::kDense;
  if (name == "sparse") return Pipeline::kSparse;
  return std::nullopt;
}

std::string_view to_string(Transport transport) noexcept {
  return transport == Transport::kUdp ? "udp" : "sim";
}

std::optional<Transport> transport_from_name(std::string_view name) noexcept {
  if (name == "sim") return Transport::kSim;
  if (name == "udp") return Transport::kUdp;
  return std::nullopt;
}

std::optional<std::string> validate_faults(const sim::FaultSchedule& faults) {
  const auto bad = [](double x) { return !(x >= 0.0) || x > 1.0; };  // NaN-safe
  if (bad(faults.loss_prob)) return "loss_prob must lie in [0, 1]";
  if (bad(faults.crash_fraction) || faults.crash_fraction >= 1.0)
    return "crash_fraction must lie in [0, 1)";
  for (const sim::CrashEvent& e : faults.churn) {
    if (e.round == 0)
      return "churn events start at round 1 (round-0 crashes belong in "
             "crash_fraction)";
    if (bad(e.fraction) || e.fraction == 0.0 || e.fraction >= 1.0)
      return "churn fractions must lie in (0, 1)";
  }
  for (const sim::JoinEvent& e : faults.joins) {
    if (e.round == 0)
      return "join events start at round 1 (a round-0 joiner is simply a "
             "present node)";
    if (bad(e.fraction) || e.fraction == 0.0 || e.fraction >= 1.0)
      return "join fractions must lie in (0, 1)";
  }
  for (const sim::BlockCrashEvent& b : faults.blocks) {
    if (b.lo >= b.hi) return "block-crash events need lo < hi";
    if (b.stride != 0 && b.width == 0)
      return "strided block-crash events need width >= 1";
    if (b.stride != 0 && b.width > b.stride)
      return "block-crash width must not exceed its stride";
  }
  for (const sim::PartitionEvent& p : faults.partitions) {
    if (p.heal_round <= p.round) return "partition heal rounds must follow the cut";
    if (p.boundary == 0) return "partition boundary 0 cuts nothing";
  }
  const sim::LatencyModel& l = faults.latency;
  if (l.kind == sim::LatencyModel::Kind::kUniform ||
      l.kind == sim::LatencyModel::Kind::kHeavyTail) {
    if (l.max_delay < l.min_delay) return "latency window needs min <= max";
  }
  if (bad(l.tail_prob)) return "latency tail_prob must lie in [0, 1]";
  return std::nullopt;
}

double RunReport::abs_error() const noexcept { return std::fabs(value - truth); }

double RunReport::rel_error() const noexcept {
  return abs_error() / std::max(1.0, std::fabs(truth));
}

bool AlgorithmInfo::supports(Aggregate agg) const noexcept {
  return std::find(aggregates.begin(), aggregates.end(), agg) != aggregates.end();
}

bool AlgorithmInfo::supports(Transport transport) const noexcept {
  return std::find(transports.begin(), transports.end(), transport) != transports.end();
}

Registry& Registry::instance() {
  static Registry registry;
  static std::once_flag builtins_once;
  std::call_once(builtins_once, [] { detail::register_builtin_algorithms(registry); });
  return registry;
}

void Registry::add(AlgorithmInfo info) {
  if (info.name.empty()) throw std::invalid_argument("algorithm name must be non-empty");
  if (!info.invoke)
    throw std::invalid_argument("algorithm '" + info.name + "' has no invoke adapter");
  if (find(info.name) != nullptr)
    throw std::invalid_argument("algorithm '" + info.name + "' registered twice");
  if (info.transports.empty()) info.transports = {Transport::kSim};
  algos_.push_back(std::move(info));
}

const AlgorithmInfo* Registry::find(std::string_view name) const noexcept {
  for (const AlgorithmInfo& a : algos_)
    if (a.name == name) return &a;
  return nullptr;
}

std::vector<const AlgorithmInfo*> Registry::algorithms() const {
  std::vector<const AlgorithmInfo*> out;
  out.reserve(algos_.size());
  for (const AlgorithmInfo& a : algos_) out.push_back(&a);
  return out;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(algos_.size());
  for (const AlgorithmInfo& a : algos_) out.push_back(a.name);
  return out;
}

Registration::Registration(AlgorithmInfo info) {
  Registry::instance().add(std::move(info));
}

RunReport run(std::string_view algorithm, const RunSpec& spec) {
  RunReport report;
  report.algorithm = std::string{algorithm};
  report.aggregate = spec.aggregate;
  report.n = spec.n;
  report.seed = spec.seed;

  const AlgorithmInfo* algo = Registry::instance().find(algorithm);
  if (algo == nullptr) {
    report.supported = false;
    report.error = "unknown algorithm '" + report.algorithm + "'";
    return report;
  }
  if (!algo->supports(spec.aggregate)) {
    report.supported = false;
    report.error = "aggregate '" + std::string{to_string(spec.aggregate)} +
                   "' not supported by '" + algo->name + "'";
    return report;
  }
  if (!algo->supports(spec.transport)) {
    report.supported = false;
    report.error = "transport '" + std::string{to_string(spec.transport)} +
                   "' not supported by '" + algo->name + "'";
    return report;
  }
  if (std::optional<std::string> bad = validate_faults(spec.faults)) {
    report.error = "invalid fault schedule: " + *bad;
    return report;
  }
  if (spec.n < 2) {
    report.error = "invalid spec: need n >= 2";
    return report;
  }
  if (!spec.values.empty() && spec.values.size() != spec.n) {
    report.error = "invalid spec: values must hold exactly n entries";
    return report;
  }
  if (!std::all_of(spec.values.begin(), spec.values.end(),
                   [](double x) { return std::isfinite(x); })) {
    report.error = "invalid spec: every value must be finite";
    return report;
  }
  try {
    report = algo->invoke(spec);
  } catch (const std::exception& e) {
    report.error = e.what();
  } catch (...) {
    report.error = "algorithm '" + algo->name + "' threw a non-std::exception";
  }
  report.algorithm = algo->name;
  report.aggregate = spec.aggregate;
  report.n = spec.n;
  report.seed = spec.seed;
  return report;
}

std::uint64_t trial_seed(std::uint64_t base_seed, int t) noexcept {
  if (t == 0) return base_seed;  // trial 0 is the spec's own seed
  return derive_seed(base_seed, 0x7261ULL, static_cast<std::uint64_t>(t));
}

std::vector<RunReport> run_trials(std::string_view algorithm, const RunSpec& spec,
                                  int trials, unsigned threads) {
  if (trials < 0) trials = 0;
  (void)Registry::instance();  // build the registry before workers race to it
  // Shared thread budget: trial-level workers take priority, whatever is
  // left over flows into each trial's intra-run fan-outs (e.g. a Median
  // sweep of 2 trials at --threads 8 runs 2 trial workers x 4 intra
  // threads).  Purely a scheduling decision -- results are bit-identical.
  const unsigned outer = resolve_threads(threads, static_cast<std::size_t>(trials));
  const unsigned total = resolve_threads(threads, std::size_t{1} << 20);
  const unsigned leftover = outer > 0 ? std::max(1u, total / outer) : 1;
  return parallel_map(static_cast<std::size_t>(trials), threads, [&](std::size_t t) {
    RunSpec trial = spec;
    trial.seed = trial_seed(spec.seed, static_cast<int>(t));
    // 0 means "all hardware cores" and must survive the merge.
    trial.intra_threads =
        spec.intra_threads == 0 ? 0 : std::max(spec.intra_threads, leftover);
    return run(algorithm, trial);
  });
}

std::vector<RunReport> run_matrix(const RunSpec& base, unsigned threads) {
  const auto algos = Registry::instance().algorithms();
  constexpr std::size_t kAggs = std::size(kAllAggregates);
  return parallel_map(algos.size() * kAggs, threads, [&](std::size_t i) {
    RunSpec spec = base;
    spec.aggregate = kAllAggregates[i % kAggs];
    return run(algos[i / kAggs]->name, spec);
  });
}

}  // namespace drrg::api
