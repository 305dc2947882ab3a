#pragma once
// Deterministic parallel map over an index range.
//
// Monte-Carlo sweeps (api::run_trials, api::run_matrix) and intra-run
// fan-outs (the quantile bracket, the histogram's rank queries) are
// embarrassingly parallel: every task is a pure function of its index
// (all randomness flows from derived seeds, no globals are mutated).  The
// executor therefore guarantees *bit-identical* output for any thread
// count, including 1:
//
//   * the task list and each task's inputs are fixed up front (derived
//     seeds / salted stream tags, never execution order);
//   * workers pull task indices from an atomic counter and write results
//     into a pre-sized slot array -- results are ordered by task index,
//     not completion order;
//   * nothing about scheduling feeds back into any task's computation.
//
// So `threads` is purely a wall-clock knob; correctness tests can run the
// same sweep at --threads 1/4/8 and memcmp the reports.  Lives in
// support/ so the aggregate layer can nest fan-outs without depending on
// the api facade.

#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace drrg {

/// Resolves a thread-count request: 0 = one thread per hardware core,
/// otherwise the request itself, clamped to the task count.
[[nodiscard]] inline unsigned resolve_threads(unsigned requested, std::size_t tasks) {
  unsigned t = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (t == 0) t = 1;
  if (tasks < t) t = static_cast<unsigned>(tasks == 0 ? 1 : tasks);
  return t;
}

/// Runs fn(i) for every i in [0, count) on `threads` workers and returns
/// the results ordered by index.  With threads <= 1 the loop runs inline
/// (no thread is spawned).  The first exception (by task index) is
/// rethrown after all workers join.
template <class F>
auto parallel_map(std::size_t count, unsigned threads, F&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> results(count);
  if (count == 0) return results;

  const unsigned workers = resolve_threads(threads, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }

  // One error slot per *worker*, not per task: each worker keeps only the
  // lowest-index exception it saw, and the winner across workers is the
  // lowest-index exception overall -- first-error-by-index semantics
  // without an O(tasks) bookkeeping array on large sweeps.
  struct WorkerError {
    std::size_t index;
    std::exception_ptr error;
  };
  std::atomic<std::size_t> next{0};
  std::vector<WorkerError> errors(workers, WorkerError{0, nullptr});
  auto worker = [&](unsigned w) {
    WorkerError& slot = errors[w];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        if (slot.error == nullptr || i < slot.index) {
          slot.index = i;
          slot.error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
  const WorkerError* first = nullptr;
  for (const WorkerError& e : errors)
    if (e.error != nullptr && (first == nullptr || e.index < first->index)) first = &e;
  if (first != nullptr) std::rethrow_exception(first->error);
  return results;
}

}  // namespace drrg
