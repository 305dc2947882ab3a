// The repository benchmark driver.  Runs one DRR-gossip workload through
// the public api (api::run / api::run_trials) for a fixed time budget,
// checks every run against the exact truth, and prints each metric by
// name and unit, then one JSON object as the last line of stdout:
//
//   perfbench_run    --workload W [--seed S] [--seconds T] [--size full|smoke]
//   perfbench_traced --workload W [--seed S] [--seconds T] [--size full|smoke]
//
// The binary decides the mode.  perfbench_run reports the end-to-end
// metrics of untraced runs.  perfbench_traced, which also links the
// counting allocator, interleaves untraced api::run calls with a replay
// of the same pipeline through its public phase functions (replay.hpp)
// and reports the per-layer metrics.  A layer a workload does not run
// reports 0.  The exit status is 1 when any checked run fails.  See
// perfbench/README.md for why each workload exists.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "aggregate/sparse.hpp"
#include "api/registry.hpp"
#include "chord/chord.hpp"
#include "measure.hpp"
#include "replay.hpp"
#include "support/parallel.hpp"
#include "support/workload.hpp"

#ifdef PERFBENCH_COUNT_ALLOCS
#include "support/alloc_counter.hpp"
#endif

namespace perfbench {
namespace {

using namespace drrg;

struct Workload {
  const char* name;
  const char* algorithm;
  api::Aggregate aggregate;
  double loss;
  double crash;
  struct Size {
    std::uint32_t n;
    int trials;        ///< one timed run is a run_trials sweep of this many
    double tolerance;  ///< largest accepted rel_error of a trial
  } full, smoke;
};

// Every workload is a sweep of cache-sized runs on every core.  On a
// shared 4-core host a single run at n = 2^18-2^20 is memory-bound, and
// its time drifted by 25-45% from minute to minute over ten seeds, past
// any bound a metric may have; sweeps at n <= 2^14 drifted about half as
// much, and together, so the trial count makes each timed run about a
// second long.
//
// Tolerances are about 5x the worst rel_error of a few thousand trials
// at each size (256 on Chord): fault-free push-sum's finite round budget
// leaves 2e-7 at 2^14 and 1.6e-6 at 2^12, the O(loss) forward-hop mass
// leak 2.8e-3 and 7e-3, the routed push-sum on Chord 4e-3 and 5e-3.  Max
// is exact.
constexpr Workload kWorkloads[] = {
    {"dense-ave-16k", "drr", api::Aggregate::kAve, 0.0, 0.0,
     {1u << 14, 256, 1e-6}, {1u << 12, 16, 1e-5}},
    {"dense-ave-faults-16k", "drr", api::Aggregate::kAve, 0.02, 0.05,
     {1u << 14, 128, 1e-2}, {1u << 12, 16, 4e-2}},
    {"chord-drr-16k", "chord-drr", api::Aggregate::kAve, 0.0, 0.0,
     {1u << 14, 16, 2e-2}, {1u << 12, 8, 4e-2}},
    {"dense-max-4k", "drr", api::Aggregate::kMax, 0.0, 0.0,
     {4096, 4096, 0.0}, {1024, 64, 0.0}},
};

constexpr int kMinRuns = 3;                  // timed runs, whatever --seconds says
constexpr int kMinTracedBatches = 2;         // traced batches, likewise
constexpr double kSetupSliceSeconds = 0.05;  // least set-up timing before each run
constexpr int kTracedBatch = 32;             // most trials per traced batch
constexpr int kSpeedupTrials = 1024;         // most sweep trials timed at 1 and all cores
constexpr int kIntraReps = 5;                // single trials timed per intra_threads
constexpr std::uint64_t kWarmSalt = 0x7761726dULL;  // "warm": the warm-up seed

[[nodiscard]] std::string fmt(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", x);
  return buf;
}

// perfbench_traced is the build with the counting allocator.
#ifdef PERFBENCH_COUNT_ALLOCS
constexpr bool kTrace = true;
[[nodiscard]] std::uint64_t allocs() { return support::alloc_count(); }
#else
constexpr bool kTrace = false;
[[nodiscard]] std::uint64_t allocs() { return 0; }
#endif

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool smoke = false;
};

/// One workload at one size and seed, with the correctness tally of every
/// run made for it.
struct Bench {
  explicit Bench(const Options& opt)
      : w(*opt.workload),
        size(opt.smoke ? w.smoke : w.full),
        n(size.n),
        trials(size.trials),
        seed(opt.seed),
        seconds(opt.seconds) {}

  const Workload& w;
  const Workload::Size& size;
  const std::uint32_t n;
  const int trials;
  const std::uint64_t seed;
  const double seconds;
  int attempted = 0;
  int failed = 0;
  double worst_rel = 0.0;

  [[nodiscard]] bool chord() const { return std::string_view{w.algorithm} == "chord-drr"; }

  /// The sweep's spec; run_trials draws each trial's seed and values from
  /// it.  Chord sweeps take a fresh base seed per run (rep 0 is the
  /// benchmark seed) so the memoised overlay is rebuilt inside every
  /// trial, as on a user's first run on a seed; rep < 0 is the warm-up.
  [[nodiscard]] api::RunSpec spec(int rep) const {
    api::RunSpec s;
    s.n = n;
    s.aggregate = w.aggregate;
    s.faults.loss_prob = w.loss;
    s.faults.crash_fraction = w.crash;
    s.seed = !chord() ? seed
             : rep < 0 ? derive_seed(seed, kWarmSalt)
                       : api::trial_seed(seed, rep);
    return s;
  }

  /// Records one run: ok(), consensus, and rel_error within tolerance.
  bool check(const api::RunReport& r) {
    ++attempted;
    const double rel = r.rel_error();
    if (r.ok() && std::isfinite(rel)) worst_rel = std::max(worst_rel, rel);
    if (r.ok() && r.consensus && rel <= size.tolerance) return true;
    fail("seed " + std::to_string(r.seed) + ": " +
         (!r.ok() ? r.error
                  : !r.consensus ? "no consensus"
                                 : "rel_error " + fmt(rel) + " > tolerance"));
    return false;
  }

  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "perfbench: %s: FAILED %s\n", w.name, why.c_str());
  }

  /// Times the public builders one trial needs, directly: its inputs,
  /// plus the overlay and its link graph on Chord.  Appends one time per
  /// repetition, repeating for at least kSetupSliceSeconds.  The driver
  /// calls it before every run, so the median of `times` covers the whole
  /// measurement, not one moment.
  void time_setup(std::vector<double>& times) const {
    double sink = 0.0;
    const auto slice = Clock::now();
    do {
      const auto start = Clock::now();
      sink += workload::make_values(n, seed).front();
      if (chord()) {
        const ChordOverlay overlay{n, seed};
        sink += static_cast<double>(overlay_graph(overlay).edge_count());
      }
      times.push_back(seconds_since(start));
    } while (seconds_since(slice) < kSetupSliceSeconds);
    if (!std::isfinite(sink)) std::fprintf(stderr, "perfbench: set-up produced NaN\n");
  }

  /// One untraced run: the whole sweep on every core.
  [[nodiscard]] std::vector<api::RunReport> run(const api::RunSpec& s) const {
    return api::run_trials(w.algorithm, s, trials, /*threads=*/0);
  }

  void describe() const {
    std::printf("workload %s: %s/%s n=%u trials=%d seed=%llu loss=%g crash=%g "
                "cores=%u tolerance=%g\n",
                w.name, w.algorithm, std::string{api::to_string(w.aggregate)}.c_str(), n,
                trials, static_cast<unsigned long long>(seed), w.loss, w.crash,
                resolve_threads(0, 1u << 20), size.tolerance);
  }
};

void print_spread(const char* what, const std::vector<double>& v, const char* unit) {
  std::printf("%s over %zu samples: min %.6g, q1 %.6g, median %.6g, q3 %.6g, max %.6g %s\n",
              what, v.size(), quantile(v, 0.0), quantile(v, 0.25), median(v),
              quantile(v, 0.75), quantile(v, 1.0), unit);
}

// ---------------------------------------------------------------------------
// perfbench_run: end-to-end metrics.

void run_untraced(Bench& b, MetricList& m) {
  std::vector<double> setups;
  b.time_setup(setups);
  for (const api::RunReport& r : b.run(b.spec(-1))) b.check(r);  // warm-up

  std::vector<double> walls, cpus, rates;
  double msgs0 = 0.0;
  double rounds0 = 0.0;
  api::RunReport first;
  const auto loop = Clock::now();
  for (int rep = 0;; ++rep) {
    b.time_setup(setups);
    const api::RunSpec s = b.spec(rep);
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    const std::vector<api::RunReport> reports = b.run(s);
    const double wall = seconds_since(start);
    const double cpu = process_cpu_s() - cpu_start;

    double msgs = 0.0;
    double rounds = 0.0;
    for (const api::RunReport& r : reports) {
      b.check(r);
      msgs += static_cast<double>(r.cost.sent);
      rounds += r.rounds;
    }
    if (rep == 0) {
      msgs0 = msgs / static_cast<double>(reports.size());
      rounds0 = rounds / static_cast<double>(reports.size());
      first = reports.front();
    } else if (!b.chord() && (reports.front().cost.sent != first.cost.sent ||
                              reports.front().rounds != first.rounds ||
                              reports.front().value != first.value)) {
      b.fail("rerun of the same spec differs");
    }
    walls.push_back(wall);
    cpus.push_back(cpu);
    rates.push_back(msgs / wall);
    if (rep + 1 >= kMinRuns && seconds_since(loop) + median(walls) > b.seconds) break;
  }

  const double setup = median(setups);
  print_spread("set-up", setups, "s");
  print_spread("wall", walls, "s");
  print_spread("cpu", cpus, "s");
  std::printf("sweep 0 (seed %llu): %.0f messages in %.1f rounds per trial\n",
              static_cast<unsigned long long>(first.seed), msgs0, rounds0);
  std::printf("correctness: %d/%d runs failed (failed_frac %.6g), worst rel_error %.6g\n",
              b.failed, b.attempted, static_cast<double>(b.failed) / b.attempted,
              b.worst_rel);

  const double lg = std::log2(static_cast<double>(b.n));
  m.add("wall_s", median(walls), "s");
  m.add("cpu_s", median(cpus), "s");
  m.add("peak_rss_mib", peak_rss_mib(), "MiB");
  m.add("setup_s", setup, "s");
  m.add("sim_msgs_per_s", median(rates), "1/s");
  m.add("rounds_per_logn", rounds0 / lg, "ratio");
  m.add("msgs_per_nloglogn", msgs0 / (b.n * std::log2(lg)), "ratio");
}

// ---------------------------------------------------------------------------
// perfbench_traced: per-layer metrics.

/// Per-trial means of each batch (a batch is kTracedBatch trials, or
/// the whole sweep if smaller) and batch-0 counts.
struct Layers {
  std::array<std::vector<double>, kPhaseCount> wall;
  std::array<sim::Counters, kPhaseCount> counters{};  // batch 0, summed
  double probes = 0.0;
  ForestSummary forest_sum{};  // batch 0, summed (largest_tree_root unused)
  std::vector<double> api_s, replay_s, allocs;
  std::vector<double> overlay_s, links_s, local_drr_s;
  sim::Counters local_drr{}, phase2{}, phase3{}, final_bcast{};  // Chord, batch 0, summed
  int batch0_runs = 0;
};

/// Median time of one trial at intra_threads = every core over one
/// thread, alternating the two; fails the bench if their results differ.
[[nodiscard]] double intra_speedup(Bench& b) {
  api::RunSpec s = b.spec(0);
  std::array<std::vector<double>, 2> times;
  std::array<api::RunReport, 2> reports;
  for (int rep = 0; rep < kIntraReps; ++rep) {
    for (int i = 0; i < 2; ++i) {
      s.intra_threads = i == 0 ? 1 : 0;
      const auto start = Clock::now();
      reports[i] = api::run(b.w.algorithm, s);
      times[i].push_back(seconds_since(start));
      b.check(reports[i]);
    }
    if (reports[0].cost.sent != reports[1].cost.sent || reports[0].value != reports[1].value)
      b.fail("intra_threads=0 run differs from intra_threads=1");
  }
  return median(times[0]) / median(times[1]);
}

void run_traced(Bench& b, MetricList& m) {
  for (const api::RunReport& r : b.run(b.spec(-1))) b.check(r);  // warm-up

  Layers L;
  api::RunReport last;
  const auto loop = Clock::now();
  for (int batch = 0;; ++batch) {
    const int runs = std::min(kTracedBatch, b.trials);
    std::array<double, kPhaseCount> wall{};
    double api_s = 0.0, replay_s = 0.0, alloc_n = 0.0;
    double overlay_s = 0.0, links_s = 0.0, local_s = 0.0;
    const auto start_batch = Clock::now();
    for (int k = 0; k < runs; ++k) {
      api::RunSpec s = b.spec(0);
      s.seed = api::trial_seed(b.seed, (batch * runs + k) % b.trials);
      const std::vector<double> values = workload::make_values(b.n, s.seed);
      const std::uint64_t a0 = allocs();
      const auto start = Clock::now();
      last = api::run(b.w.algorithm, s);
      api_s += seconds_since(start);
      alloc_n += static_cast<double>(allocs() - a0);
      if (!b.check(last)) continue;

      if (batch == 0) {
        L.forest_sum.num_trees += last.forest.num_trees;
        L.forest_sum.max_tree_size += last.forest.max_tree_size;
        L.forest_sum.max_tree_height += last.forest.max_tree_height;
        ++L.batch0_runs;
      }
      if (b.chord()) {
        const ChordTrace t = replay_chord(s);
        if (const std::string d = compare(t, last); !d.empty()) b.fail("replay: " + d);
        overlay_s += t.overlay_s;
        links_s += t.links_s;
        local_s += t.local_drr_s;
        if (batch == 0) {
          const PhaseMetrics& ph = last.phases;
          L.local_drr += t.local_drr;
          L.phase2 += ph.convergecast;
          L.phase2 += ph.root_broadcast;
          L.phase3 += ph.gossip;
          L.phase3 += ph.spread;
          L.final_bcast += ph.value_broadcast;
        }
      } else {
        const DenseTrace t = replay_dense(s, values);
        if (const std::string d = compare(t, last); !d.empty()) b.fail("replay: " + d);
        replay_s += t.total_s;
        for (int p = 0; p < kPhaseCount; ++p) {
          wall[p] += t.phase[p].wall_s;
          if (batch == 0) L.counters[p] += t.phase[p].counters;
        }
        if (batch == 0) L.probes += static_cast<double>(t.probes);
      }
    }
    const double per = 1.0 / runs;
    for (int p = 0; p < kPhaseCount; ++p) L.wall[p].push_back(wall[p] * per);
    L.api_s.push_back(api_s * per);
    L.replay_s.push_back(replay_s * per);
    L.allocs.push_back(alloc_n * per);
    L.overlay_s.push_back(overlay_s * per);
    L.links_s.push_back(links_s * per);
    L.local_drr_s.push_back(local_s * per);
    const double batch_s = seconds_since(start_batch);
    if (batch + 1 >= kMinTracedBatches && seconds_since(loop) + batch_s > b.seconds) break;
  }

  // The parallel layer at every core against one thread: the sweep's
  // trial executor, and one trial's intra-round workers.
  const api::RunSpec s = b.spec(0);
  auto start = Clock::now();
  for (const api::RunReport& r : b.run(s)) b.check(r);
  const double trials_per_s = b.trials / seconds_since(start);
  const int k = std::min(kSpeedupTrials, b.trials);
  start = Clock::now();
  for (const api::RunReport& r : api::run_trials(b.w.algorithm, s, k, 1)) b.check(r);
  const double serial = seconds_since(start);
  start = Clock::now();
  for (const api::RunReport& r : api::run_trials(b.w.algorithm, s, k, 0)) b.check(r);
  const double speedup = serial / seconds_since(start);
  const double intra = intra_speedup(b);

  const double runs0 = std::max(1, L.batch0_runs);
  const auto mean = [&](double total) { return total / runs0; };
  double phase_sum = 0.0;
  for (int p = 0; p < kPhaseCount; ++p) phase_sum += median(L.wall[p]);
  const double api_s = median(L.api_s);
  const double chord_prefix =
      median(L.overlay_s) + median(L.links_s) + median(L.local_drr_s);
  const double replayed = b.chord() ? chord_prefix : phase_sum;

  print_spread("untraced api::run", L.api_s, "s per run");
  if (!b.chord()) print_spread("traced replay", L.replay_s, "s per run");
  std::printf("replayed phases %.6g s + glue %.6g s = untraced api::run %.6g s\n",
              replayed, api_s - replayed, api_s);
  std::printf("correctness: %d/%d runs failed (failed_frac %.6g), worst rel_error %.6g\n",
              b.failed, b.attempted, static_cast<double>(b.failed) / b.attempted,
              b.worst_rel);

  const auto add_phase = [&](int p, bool tree) {
    const std::string name = kPhaseNames[p];
    const double wall = median(L.wall[p]);
    const double msgs = mean(static_cast<double>(L.counters[p].sent));
    m.add(name + ".wall_s", wall, "s");
    m.add(name + ".msgs", msgs, "count");
    m.add(name + ".rounds", mean(L.counters[p].rounds), "count");
    if (tree)
      m.add(name + ".delivered_frac",
            ratio(static_cast<double>(L.counters[p].delivered),
                  static_cast<double>(L.counters[p].sent)),
            "ratio");
    else
      m.add(name + ".msgs_per_s", ratio(msgs, wall), "1/s");
  };
  add_phase(kDrr, true);
  m.add("drr.probes", mean(L.probes), "count");
  m.add("forest.trees", mean(L.forest_sum.num_trees), "count");
  m.add("forest.max_tree_size", mean(L.forest_sum.max_tree_size), "count");
  m.add("forest.max_tree_height", mean(L.forest_sum.max_tree_height), "count");
  add_phase(kConvergecast, true);
  add_phase(kAddrBroadcast, true);
  add_phase(kElection, false);
  add_phase(kPushSum, false);
  add_phase(kSpread, false);
  add_phase(kGossipMax, false);
  add_phase(kValueBroadcast, true);
  m.add("pipeline.glue_s", b.chord() ? 0.0 : api_s - phase_sum, "s");
  m.add("api.allocs_per_run", median(L.allocs), "count");
  m.add("api.trials_per_s", trials_per_s, "1/s");
  m.add("parallel.speedup", speedup, "ratio");
  m.add("parallel.intra_speedup", intra, "ratio");

  const bool chord = b.chord();
  const auto add_sparse = [&](const std::string& name, const sim::Counters& c) {
    m.add(name + ".msgs", mean(static_cast<double>(c.sent)), "count");
    m.add(name + ".rounds", mean(c.rounds), "count");
  };
  m.add("chord.overlay_s", median(L.overlay_s), "s");
  m.add("chord.links_s", median(L.links_s), "s");
  m.add("local_drr.wall_s", median(L.local_drr_s), "s");
  m.add("local_drr.msgs", mean(static_cast<double>(L.local_drr.sent)), "count");
  add_sparse("sparse.phase2", L.phase2);
  add_sparse("sparse.phase3", L.phase3);
  add_sparse("sparse.final", L.final_bcast);
  m.add("sparse.rest_s", chord ? api_s - chord_prefix : 0.0, "s");

  // Tracing overhead: the replay of the whole dense pipeline against the
  // untraced api::run of the same spec, both per run (the Chord replay
  // covers only the run's prefix, so it has none).
  const double traced = chord ? 0.0 : median(L.replay_s);
  m.add("trace.untraced_s", api_s, "s");
  m.add("trace.traced_s", traced, "s");
  m.add("trace.overhead_frac", chord ? 0.0 : traced / api_s - 1.0, "ratio");
  m.add("check.rel_error", b.worst_rel, "ratio");
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload W [--seed S] [--seconds T] "
               "[--size full|smoke]\n  workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) opt.workload = &w;
      if (opt.workload == nullptr) return false;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0)) return false;
    } else if (arg == "--size") {
      if (value != "full" && value != "smoke") return false;
      opt.smoke = value == "smoke";
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) return false;
  }
  return opt.workload != nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  Bench bench{opt};
  bench.describe();
  MetricList metrics;
  if constexpr (kTrace)
    run_traced(bench, metrics);
  else
    run_untraced(bench, metrics);
  std::printf("%s metrics:\n", kTrace ? "per-layer" : "end-to-end");
  metrics.print_table(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              bench.failed == 0 ? "true" : "false", bench.attempted, bench.failed,
              metrics.json().c_str());
  return bench.failed == 0 ? 0 : 1;
}
