#pragma once
// Shared helpers for the experiment harnesses.
//
// Every bench binary reproduces one table/figure/theorem of the paper (see
// the algorithm/aggregate matrix and per-experiment notes in README.md).
// Each benchmark case runs the full simulation across a handful of seeds
// and reports the measured quantities as google-benchmark counters -- the
// printed counter columns are the reproduced table rows.  Wall-clock time
// of the simulation itself is irrelevant to the paper's claims; all cases
// therefore run one iteration.
//
// Workload generation lives in support/workload.hpp so the benches, the
// CLI, the examples and the tests all draw the same per-seed values.

#include <benchmark/benchmark.h>

#include "support/workload.hpp"
