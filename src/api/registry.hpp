#pragma once
// The algorithm registry: the one place an algorithm plugs into to become
// visible to the CLI (--list and dispatch), the benches, the examples and
// the matrix tests.
//
// Each entry declares a stable name, a one-line description, the set of
// aggregates it implements, and an invoke adapter that maps the uniform
// RunSpec onto the algorithm's native signature and its native result
// back onto a RunReport.  The built-in algorithms (drr, uniform,
// efficient, pairwise, extrema, chord-drr, chord-uniform) register
// themselves when the registry is first touched; external code adds more
// via Registry::instance().add(...) or a static api::Registration object.

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"

namespace drrg::api {

struct AlgorithmInfo {
  std::string name;         ///< CLI-facing identifier, e.g. "chord-drr"
  std::string description;  ///< one line for --list / README tables
  std::vector<Aggregate> aggregates;  ///< supported aggregate set
  /// Execution substrates the adapter implements; empty = {kSim}
  /// (normalised by Registry::add, so consumers can iterate directly).
  std::vector<Transport> transports;
  std::function<RunReport(const RunSpec&)> invoke;

  [[nodiscard]] bool supports(Aggregate agg) const noexcept;
  [[nodiscard]] bool supports(Transport transport) const noexcept;
};

class Registry {
 public:
  /// The process-wide registry; built-ins are registered on first use.
  [[nodiscard]] static Registry& instance();

  /// Registers an algorithm.  Throws std::invalid_argument on a duplicate
  /// name or a missing invoke adapter.
  void add(AlgorithmInfo info);

  /// Looks an algorithm up by name; nullptr when absent.  The pointer is
  /// stable for the registry's lifetime.
  [[nodiscard]] const AlgorithmInfo* find(std::string_view name) const noexcept;

  /// All algorithms in registration order.
  [[nodiscard]] std::vector<const AlgorithmInfo*> algorithms() const;

  [[nodiscard]] std::vector<std::string> names() const;

 private:
  Registry() = default;
  std::deque<AlgorithmInfo> algos_;  // deque: element pointers stay valid across add()
};

/// RAII registrar for static registration of out-of-library algorithms:
///   static const api::Registration reg{{.name = "mine", ...}};
struct Registration {
  explicit Registration(AlgorithmInfo info);
};

/// Runs `algorithm` on `spec`.  Never throws: an unknown algorithm, an
/// unsupported (algorithm, aggregate) pair, an invalid fault schedule,
/// n < 2, values that are not n finite numbers, a config type mismatch
/// or an exception inside the algorithm comes back as a RunReport with
/// ok() == false and a populated error.
[[nodiscard]] RunReport run(std::string_view algorithm, const RunSpec& spec);

/// The root seed trial `t` of a sweep starting from `base_seed` runs
/// with: derived (not consecutive) so trials are decorrelated and
/// independent of execution order.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t base_seed, int t) noexcept;

/// Monte-Carlo helper: `trials` runs with per-trial derived root seeds
/// (a fresh synthetic workload per trial when spec.values is empty),
/// executed on a deterministic thread pool.  Results are ordered by trial
/// index and bit-identical for every `threads` value (0 = all hardware
/// cores, 1 = serial).
[[nodiscard]] std::vector<RunReport> run_trials(std::string_view algorithm,
                                                const RunSpec& spec, int trials,
                                                unsigned threads = 1);

/// The full algorithm x aggregate matrix on one base spec: every
/// registered algorithm crossed with every Aggregate, unsupported pairs
/// reported (not skipped) with supported == false.  Cells run on the same
/// deterministic executor as run_trials.
[[nodiscard]] std::vector<RunReport> run_matrix(const RunSpec& base,
                                                unsigned threads = 1);

namespace detail {
/// Defined in algorithms.cpp; called once by Registry::instance().  The
/// hard symbol reference keeps the adapters' object file linked into
/// static-library consumers.
void register_builtin_algorithms(Registry& registry);
}  // namespace detail

}  // namespace drrg::api
