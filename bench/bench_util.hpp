#pragma once

// Shared support for the figure-reproduction benches.  Every scenario
// reports through its ScenarioOutput sink (opts.out(), util/csv.hpp):
//   1. a header naming the figure it reproduces,
//   2. a CSV trace with the same series the paper plots (CsvWriter),
//   3. a "CHECK" summary comparing the measured shape against the paper's
//      qualitative claim (each CHECK row and its default-seed outcome is
//      recorded in tests/golden/checks.tsv; the README lists the figures).
//
// Benches define their entry point with TFMCC_SCENARIO (sim/scenario.hpp),
// which registers them as scenarios of the unified `tfmcc_sim` driver.

#include <algorithm>
#include <string>

#include "sim/scenario.hpp"
#include "util/csv.hpp"

namespace tfmcc::bench {

inline void figure_header(ScenarioOutput& out, const char* figure,
                          const char* title) {
  out.figure_header(figure, title);
}

inline bool check(ScenarioOutput& out, bool ok, const std::string& what) {
  out.check(ok, what);
  return ok;
}

inline void note(ScenarioOutput& out, const std::string& what) {
  out.note(what);
}

/// Warm-up cutoff for steady-state measurement windows: the paper's cutoff,
/// clamped to half the horizon so shortened --duration runs still measure.
inline SimTime warmup(SimTime cap, SimTime horizon) {
  return std::min(cap, horizon / 2.0);
}

}  // namespace tfmcc::bench
