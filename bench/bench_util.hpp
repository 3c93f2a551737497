#pragma once

// Shared support for the figure-reproduction benches.  Every scenario
// prints:
//   1. a header naming the figure it reproduces,
//   2. a CSV trace with the same series the paper plots,
//   3. a "CHECK" summary comparing the measured shape against the paper's
//      qualitative claim (each CHECK row and its default-seed outcome is
//      recorded in tests/golden/checks.tsv; the README lists the figures).
//
// Benches define their entry point with TFMCC_SCENARIO (sim/scenario.hpp),
// which registers them as scenarios of the unified `tfmcc_sim` driver.

#include <algorithm>
#include <ostream>
#include <string>

#include "sim/scenario.hpp"

namespace tfmcc::bench {

// All three emitters take the scenario's output sink explicitly
// (opts.out() at the call sites) so concurrently running sweep points
// never interleave on a shared stdout.

inline void figure_header(std::ostream& os, const char* figure,
                          const char* title) {
  os << "# " << figure << ": " << title << '\n';
}

inline bool check(std::ostream& os, bool ok, const std::string& what) {
  os << "CHECK " << (ok ? "PASS" : "DIVERGES") << ": " << what << '\n';
  return ok;
}

inline void note(std::ostream& os, const std::string& what) {
  os << "NOTE: " << what << '\n';
}

/// Warm-up cutoff for steady-state measurement windows: the paper's cutoff,
/// clamped to half the horizon so shortened --duration runs still measure.
inline SimTime warmup(SimTime cap, SimTime horizon) {
  return std::min(cap, horizon / 2.0);
}

}  // namespace tfmcc::bench
