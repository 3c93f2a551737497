#pragma once

// Parameter-sweep driver: runs one scenario over a cartesian grid of
// `--set`-able parameter values and aggregates the per-point CSV traces
// into a single table.
//
//   tfmcc_sim sweep fig07_scaling --sweep n_receivers=2:2000:log6
//                                 --sweep trials=50,150 --jobs 4
//
// Axis syntax (the value part of `--sweep key=...`):
//   v1,v2,v3         explicit list, values passed through verbatim
//   lo:hi:linN       N points linearly spaced from lo to hi inclusive
//   lo:hi:logN       N points geometrically spaced from lo to hi inclusive
// Range points for integer-typed parameters are rounded and adjacent
// duplicates collapsed, so e.g. 1:10:log20 yields each count once.
//
// Points run concurrently on a fixed-size thread pool (`--jobs N`), each
// with its output sink redirected to a private buffer (see
// ScenarioOptions::set_output); the aggregator then emits rows in
// deterministic grid order — axes vary with the last `--sweep` fastest —
// regardless of completion order, so `--jobs 1` and `--jobs N` produce
// byte-identical output.  Sweeps stream: each run's output is folded into
// its grid point as soon as every earlier task (in task order) has
// completed, and the raw capture is released — points see rows in the
// same order a serial sweep would feed them.  A point whose replicates
// have all folded is reduced to its final aggregate lines at once, so
// peak memory holds the in-flight window and those lines instead of all
// grid x N outputs.  Figure-header/CHECK/NOTE commentary from the
// points is dropped from the aggregate; per-point CSV headers must agree.
//
// `--replicate N` runs every grid point N times with per-replicate seeds
// derived from the base `--seed` (see derive_replicate_seed; unset base
// defaults to 0 so the replicate set is a pure function of the base) and
// collapses each point's rows — across replicates — into summary rows via
// the analysis/summary column-statistics engine: numeric columns expand to
// `<col>_mean`/`<col>_cov`/... for the `--stats` selection (default
// mean,cov), non-numeric columns act as group-by labels (one summary row
// per distinct label tuple, e.g. per flow; all-numeric traces collapse to
// one row per point), and a trailing `n_rep` column records the replicate
// count.  `--replicate 1` keeps today's raw-row aggregate byte-for-byte.
// `--progress` forces the throttled progress/ETA line that is otherwise
// only emitted when stderr is a TTY.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/summary.hpp"
#include "sim/scenario.hpp"

namespace tfmcc {

/// One swept parameter: the key plus the expanded value list, each value a
/// string exactly as it would appear in `--set key=value`.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Parses one `--sweep key=spec` argument into an expanded axis.  `spec`
/// is the scenario's declaration of the key when available — it selects
/// integer rounding for range points — and may be null (unknown keys are
/// reported later by per-point validation, not here).  Returns false after
/// a diagnostic on `err` for syntax errors: missing '=', empty lists,
/// malformed bounds, ranges with fewer than two points, or log ranges with
/// non-positive bounds.
bool parse_sweep_axis(std::string_view text, const ParamSpec* spec,
                      SweepAxis& axis, std::ostream& err);

/// Cartesian product of the axes in declaration order, the last axis
/// varying fastest.  One grid point is one value per axis.
std::vector<std::vector<std::string>> expand_grid(
    const std::vector<SweepAxis>& axes);

/// Label for per-point diagnostics: "n_receivers=2,trials=50".
std::string point_label(const std::vector<SweepAxis>& axes,
                        const std::vector<std::string>& point);

/// Scheduling/progress cost hint for one grid point: the product of its
/// axis values that parse as numbers greater than 1 (n_receivers=2000 →
/// 2000); non-numeric and small values contribute 1, so every hint is
/// >= 1.  Purely a heuristic — it reorders *scheduling* (longest expected
/// first, so uneven grids stop tail-stalling the pool) and weights the
/// progress/ETA line, while fold order stays task order, preserving the
/// byte-identity contract.
double sweep_point_cost(const std::vector<std::string>& point);

/// Weighted ETA: elapsed time extrapolated over remaining *work* (cost
/// hints), not remaining run count — an uneven grid that finished its
/// cheap half is not half done.  Returns 0 when no work has completed.
double weighted_eta_seconds(double elapsed_s, double weight_done,
                            double weight_total);

struct SweepOptions {
  std::vector<SweepAxis> axes;
  int jobs{1};
  /// Runs per grid point.  1 (the default) emits the points' raw rows;
  /// N > 1 emits one statistics row per point over the N replicates.
  int replicate{1};
  /// Statistics expanded per numeric column when replicate > 1; ignored
  /// (with a diagnostic at the CLI layer) for single-replicate sweeps.
  std::vector<summary::Stat> stats{summary::default_stats()};
  /// Force the progress/ETA line even when stderr is not a TTY.
  bool progress{false};
  /// `--shard i/n`: run only the grid points this shard owns (point index
  /// mod shard_count == shard_index) and write a partial-aggregate
  /// artifact instead of CSV; `tfmcc_sim merge` folds the n partials into
  /// the byte-identical unsharded aggregate.  shard_count 1 = unsharded.
  int shard_index{0};
  int shard_count{1};
  /// `--checkpoint <path>`: log finished grid points so a killed sweep
  /// can continue with --resume.  After every `checkpoint_every` folded
  /// tasks, on an interrupt and at the end, one record with the points
  /// that finished since the last one is appended.  The first append
  /// creates the file atomically (temp file + rename); later ones are
  /// fsync'd appends (see SweepLogWriter).
  std::string checkpoint_path;
  int checkpoint_every{8};
  /// `--resume <path>`: restore a checkpoint's finished points and re-run
  /// only the rest.  The checkpoint's manifest must match this sweep
  /// exactly.
  std::string resume_path;
  /// Applied to every point (duration/seed/--set overrides); its output
  /// sink and output_path are ignored — the aggregate goes to `out`.
  ScenarioOptions base;
};

/// Expands the grid, validates every point against the scenario's declared
/// parameters, runs all points on `jobs` worker threads, and writes the
/// aggregated CSV — the swept keys prepended as columns, rows in grid
/// order — to `out`.  Returns 0 on success; nonzero after a diagnostic on
/// `err` when validation fails, any run exits nonzero or throws, the
/// per-point traces cannot be merged (no CSV, or mismatched headers), or
/// the run was interrupted (see request_sweep_interrupt).
int run_sweep(const Scenario& scenario, const SweepOptions& sweep,
              std::ostream& out, std::ostream& err);

/// Asks the running sweep to stop: workers finish their in-flight run,
/// claim nothing further, and — when checkpointing — the sweep flushes a
/// final best-effort checkpoint before returning nonzero, so a `--resume`
/// continues exactly where the interrupt landed.  Async-signal-safe (sets
/// one atomic flag); `sweep_main` wires it to SIGTERM/SIGINT whenever
/// `--checkpoint` is active.
void request_sweep_interrupt();

/// CLI entry for `tfmcc_sim sweep <scenario> ...`: argv holds everything
/// after the `sweep` token.  Accepts `--sweep key=spec` (repeatable),
/// `--jobs N`, `--replicate N`, `--stats list`, `--progress`, sharding and
/// checkpoint flags (`--shard i/n`, `--checkpoint`, `--checkpoint-every`,
/// `--resume`), and every single-run flag (`--duration`, `--seed`, `--set`,
/// `--output`).  Returns the process exit code.
int sweep_main(int argc, char** argv, std::ostream& err);

}  // namespace tfmcc
