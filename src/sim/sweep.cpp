#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/sweep_state.hpp"
#include "sim/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <unistd.h>
#endif

namespace tfmcc {

namespace {

/// Set by request_sweep_interrupt (and the SIGTERM/SIGINT handlers
/// sweep_main installs while checkpointing): workers stop claiming tasks
/// and run_sweep flushes a final checkpoint.  Cleared at run_sweep entry.
std::atomic<bool> g_sweep_interrupt{false};

/// Cap on scheduled scenario runs (grid points times replicates).  Purely a
/// task-count guard against typo-sized grids: each run's output folds into
/// its point as it completes, and a finished point is reduced to its
/// aggregate lines at once, so peak memory holds the in-flight runs, one
/// open point's rows and the finished points' lines, not all grid x N
/// outputs.
constexpr std::size_t kMaxGridPoints = 1'000'000;

std::string format_value(double v, bool integral) {
  if (integral) return std::to_string(std::llround(v));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Splits `text` on `sep`, keeping empty fields so "1,,2" is diagnosable.
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t sep_at = text.find(sep, start);
    parts.push_back(text.substr(start, sep_at - start));
    if (sep_at == std::string_view::npos) return parts;
    start = sep_at + 1;
  }
}

struct PointResult {
  int rc{0};
  /// The run's CSV content (commentary already stripped, rows already
  /// split into cells by the worker thread), not the raw text capture.
  RunTrace trace;
  std::string error;
};

/// "replicate 2/5 (seed 1234...)" when replicating, "" otherwise; names the
/// exact run a diagnostic is about and the seed to reproduce it standalone.
std::string replicate_label(const SweepOptions& sweep, std::uint64_t rep,
                            int n_rep) {
  if (n_rep <= 1) return {};
  return " replicate " + std::to_string(rep + 1) + "/" +
         std::to_string(n_rep) + " (seed " +
         std::to_string(
             derive_replicate_seed(sweep.base.seed.value_or(0), rep)) +
         ")";
}

bool stderr_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return isatty(fileno(stderr)) != 0;
#else
  return false;
#endif
}

/// Throttled completed/total + elapsed/ETA line on `err`.  On a TTY the
/// line rewrites itself in place; when forced onto a non-TTY stream
/// (`--progress` under redirection) each update is its own line.  Uses the
/// monotonic clock so wall-clock adjustments cannot yield negative ETAs.
///
/// Counts are shard-local (`label` carries the "sweep shard i/n" prefix);
/// percent and ETA weight each run by its cost hint, so a ladder grid that
/// finished its cheap half does not claim to be half done.  Tasks restored
/// from a checkpoint count toward the totals but not toward the observed
/// rate — they cost this session nothing.
class ProgressReporter {
 public:
  ProgressReporter(std::string label, std::size_t total, double total_weight,
                   std::size_t restored, double restored_weight, bool enabled,
                   bool tty, std::ostream& err)
      : label_{std::move(label)},
        total_{total},
        total_weight_{total_weight},
        restored_weight_{restored_weight},
        enabled_{enabled},
        tty_{tty},
        err_{err},
        start_{std::chrono::steady_clock::now()},
        done_{restored},
        weight_done_{restored_weight} {}

  /// Thread-safe; called by workers after each completed run.
  void task_done(double weight) {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    weight_done_ += weight;
    if (!enabled_) return;
    const auto now = std::chrono::steady_clock::now();
    if (done_ != total_ &&
        now - last_print_ < std::chrono::milliseconds(200)) {
      return;
    }
    printed_ = true;
    last_print_ = now;
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    const double eta = weighted_eta_seconds(
        elapsed, weight_done_ - restored_weight_,
        total_weight_ - restored_weight_);
    const double pct =
        total_weight_ > 0.0 ? 100.0 * weight_done_ / total_weight_ : 100.0;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s: %zu/%zu runs (%.0f%%) elapsed %.1fs eta %.1fs",
                  label_.c_str(), done_, total_, pct, elapsed, eta);
    if (tty_) {
      err_ << '\r' << buf << "  " << std::flush;
    } else {
      err_ << buf << '\n';
    }
  }

  /// Terminates the in-place TTY line so later diagnostics start clean.
  void finish() {
    if (enabled_ && tty_ && printed_) err_ << '\n';
  }

 private:
  const std::string label_;
  const std::size_t total_;
  const double total_weight_;
  const double restored_weight_;
  const bool enabled_;
  const bool tty_;
  std::ostream& err_;
  const std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::size_t done_;
  double weight_done_;
  bool printed_{false};
  std::chrono::steady_clock::time_point last_print_{};
};

}  // namespace

bool parse_sweep_axis(std::string_view text, const ParamSpec* spec,
                      SweepAxis& axis, std::ostream& err) {
  const std::size_t eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 == text.size()) {
    err << "error: --sweep expects key=v1,v2,... or key=lo:hi:linN|logN, got '"
        << text << "'\n";
    return false;
  }
  axis.key = std::string{text.substr(0, eq)};
  axis.values.clear();
  const std::string_view body = text.substr(eq + 1);

  if (body.find(':') == std::string_view::npos) {
    for (std::string_view v : split(body, ',')) {
      if (v.empty()) {
        err << "error: empty value in --sweep list '" << text << "'\n";
        return false;
      }
      axis.values.emplace_back(v);
    }
    return true;
  }

  const auto parts = split(body, ':');
  double lo = 0, hi = 0;
  std::string_view kind;
  std::uint64_t n_points = 0;
  // summary::parse_number rejects non-finite values, unlike
  // scenario_registry's parse_f64: an inf/nan sweep bound can never expand
  // to a usable range.
  bool ok = parts.size() == 3 && summary::parse_number(parts[0], lo) &&
            summary::parse_number(parts[1], hi);
  if (ok) {
    const std::string_view step = parts[2];
    kind = step.substr(0, 3);
    ok = (kind == "lin" || kind == "log") && step.size() > 3;
    if (ok) {
      const std::string count{step.substr(3)};
      char* end = nullptr;
      n_points = std::strtoull(count.c_str(), &end, 10);
      ok = end == count.c_str() + count.size();
    }
  }
  if (!ok) {
    err << "error: malformed --sweep range '" << text
        << "' (expected key=lo:hi:linN or key=lo:hi:logN)\n";
    return false;
  }
  if (n_points < 2 || n_points > 1'000'000) {
    err << "error: --sweep range '" << text
        << "' needs between 2 and 1e6 points\n";
    return false;
  }
  if (kind == "log" && (lo <= 0.0 || hi <= 0.0)) {
    err << "error: --sweep log range '" << text
        << "' requires positive bounds\n";
    return false;
  }

  const bool integral =
      spec != nullptr &&
      (spec->type == ParamType::kInt64 || spec->type == ParamType::kUint64);
  const double steps = static_cast<double>(n_points - 1);
  for (std::uint64_t i = 0; i < n_points; ++i) {
    double v;
    if (i == n_points - 1) {
      v = hi;  // land exactly on the bound, no accumulated rounding
    } else if (kind == "log") {
      v = lo * std::pow(hi / lo, static_cast<double>(i) / steps);
    } else {
      v = lo + (hi - lo) * static_cast<double>(i) / steps;
    }
    std::string formatted = format_value(v, integral);
    // Integer rounding can collapse neighbouring points (1:10:log20);
    // keep each resulting value once.
    if (axis.values.empty() || axis.values.back() != formatted) {
      axis.values.push_back(std::move(formatted));
    }
  }
  return true;
}

std::vector<std::vector<std::string>> expand_grid(
    const std::vector<SweepAxis>& axes) {
  std::vector<std::vector<std::string>> grid{{}};
  for (const auto& axis : axes) {
    std::vector<std::vector<std::string>> next;
    next.reserve(grid.size() * axis.values.size());
    for (const auto& prefix : grid) {
      for (const auto& value : axis.values) {
        auto point = prefix;
        point.push_back(value);
        next.push_back(std::move(point));
      }
    }
    grid = std::move(next);
  }
  return grid;
}

std::string point_label(const std::vector<SweepAxis>& axes,
                        const std::vector<std::string>& point) {
  std::string label;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (a != 0) label += ',';
    label += axes[a].key + '=' + point[a];
  }
  return label;
}

double sweep_point_cost(const std::vector<std::string>& point) {
  double cost = 1.0;
  for (const auto& value : point) {
    double v = 0.0;
    if (summary::parse_number(value, v) && v > 1.0) cost *= v;
  }
  return cost;
}

double weighted_eta_seconds(double elapsed_s, double weight_done,
                            double weight_total) {
  if (weight_done <= 0.0) return 0.0;
  return elapsed_s / weight_done * std::max(0.0, weight_total - weight_done);
}

void request_sweep_interrupt() {
  g_sweep_interrupt.store(true, std::memory_order_relaxed);
}

int run_sweep(const Scenario& scenario, const SweepOptions& sweep,
              std::ostream& out, std::ostream& err) {
  if (sweep.axes.empty()) {
    err << "error: sweep needs at least one --sweep key=... axis\n";
    return 2;
  }
  std::size_t n_points = 1;
  for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
    const SweepAxis& axis = sweep.axes[a];
    if (axis.values.empty()) {
      err << "error: --sweep axis '" << axis.key << "' has no values\n";
      return 2;
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (sweep.axes[b].key == axis.key) {
        // A second axis for the same key would silently lose: set_param is
        // last-write-wins, so the first axis' column would mislabel what ran.
        err << "error: duplicate --sweep axis for key '" << axis.key
            << "' (combine the values into one axis)\n";
        return 2;
      }
    }
    // Cap the grid product, not just each axis: every finished point keeps
    // its aggregate lines until the aggregate is written.
    if (axis.values.size() > kMaxGridPoints / n_points) {
      err << "error: sweep grid exceeds " << kMaxGridPoints << " points\n";
      return 2;
    }
    n_points *= axis.values.size();
  }
  const int n_rep = sweep.replicate;
  if (n_rep < 1) {
    err << "error: --replicate must be at least 1\n";
    return 2;
  }
  if (static_cast<std::size_t>(n_rep) > kMaxGridPoints / n_points) {
    err << "error: sweep grid times --replicate exceeds " << kMaxGridPoints
        << " runs\n";
    return 2;
  }
  if (n_rep > 1 && sweep.stats.empty()) {
    err << "error: --replicate needs at least one statistic\n";
    return 2;
  }
  if (sweep.shard_count < 1 || sweep.shard_index < 0 ||
      sweep.shard_index >= sweep.shard_count) {
    err << "error: shard index " << sweep.shard_index
        << " is out of range for " << sweep.shard_count
        << " shard(s) (need 0 <= i < n)\n";
    return 2;
  }
  if (sweep.checkpoint_every < 1) {
    err << "error: --checkpoint-every must be at least 1\n";
    return 2;
  }
  g_sweep_interrupt.store(false, std::memory_order_relaxed);
  const auto grid = expand_grid(sweep.axes);

  // Validate every point before running anything, so a bad axis value is
  // one clean diagnostic instead of a mid-sweep failure.
  auto point_options = [&](const std::vector<std::string>& point) {
    ScenarioOptions opts = sweep.base;
    for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
      opts.set_param(sweep.axes[a].key, point[a]);
    }
    return opts;
  };
  for (const auto& point : grid) {
    if (!validate_scenario_params(scenario, point_options(point), err)) {
      err << "  (sweep point " << point_label(sweep.axes, point) << ")\n";
      return 2;
    }
  }

  // Run this shard's slice of the grid (times replicates) on a fixed-size
  // pool.  One task is one scenario run; task t is replicate t % n_rep of
  // grid point t / n_rep, and the shard owns the task iff it owns the
  // point.  Completed tasks stream: whenever the next *owned task in task
  // order* has completed, its trace is folded into its grid point and the
  // capture released, so every point sees rows in exactly the order a
  // serial unsharded sweep would feed it — byte-identical output,
  // independent of completion order and of the cost-ordered scheduling
  // below.  A point's replicates are consecutive tasks, so at most one
  // point is open at a time; when its last replicate folds, the point is
  // reduced to its final aggregate lines and its accumulator freed.
  const SweepManifest manifest = SweepManifest::from(scenario, sweep);
  const std::size_t n_tasks = grid.size() * static_cast<std::size_t>(n_rep);
  std::vector<double> point_cost(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    point_cost[p] = sweep_point_cost(grid[p]);
  }
  auto task_point = [n_rep](std::size_t t) {
    return t / static_cast<std::size_t>(n_rep);
  };

  // Fold state (guarded by fold_mu once workers start).
  std::uint64_t n_folded = 0;
  std::string header;
  std::vector<std::optional<FinishedPoint>> finished(grid.size());
  // Finished points not yet in the checkpoint log, in grid order.
  std::vector<std::size_t> unlogged;
  // The open point: raw lines accumulate in `open`, replicated rows in
  // `open_acc` (created by the point's first CSV row).
  FinishedPoint open;
  std::optional<summary::ColumnSummary> open_acc;
  // Monotone across resumes: every checkpoint append bumps it, so
  // read_checkpoint_progress sees strictly increasing heartbeats from a
  // live sweep even when no new point finished.
  std::uint64_t heartbeat = 0;

  if (!sweep.resume_path.empty()) {
    SweepLog ckpt;
    if (!read_sweep_log(sweep.resume_path, ckpt, err)) return 2;
    if (ckpt.kind != SweepLogKind::kCheckpoint) {
      err << "error: '" << sweep.resume_path
          << "' is a shard partial, not a checkpoint (merge it with "
             "`tfmcc_sim merge` instead)\n";
      return 2;
    }
    if (!ckpt.manifest.matches(manifest, /*ignore_shard_index=*/false,
                               "checkpoint '" + sweep.resume_path + "'",
                               err)) {
      return 2;
    }
    heartbeat = ckpt.heartbeat;
    for (FinishedPoint& p : ckpt.points) {
      n_folded += static_cast<std::uint64_t>(n_rep);
      if (header.empty()) header = p.csv_header;
      // A new log starts with the first append, so it re-carries these.
      unlogged.push_back(p.index);
      finished[p.index] = std::move(p);
    }
  }

  // The shard's tasks still to fold, in task order: every replicate of
  // each owned point that was not restored.
  std::vector<std::size_t> pending;
  std::size_t n_owned = 0;
  double restored_weight = 0.0;
  double owned_weight = 0.0;
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const std::size_t p = task_point(t);
    if (!shard_owns_point(manifest, p)) continue;
    ++n_owned;
    owned_weight += point_cost[p];
    if (finished[p].has_value()) {
      restored_weight += point_cost[p];
    } else {
      pending.push_back(t);
    }
  }

  // Longest-expected-first scheduling over the still-pending owned tasks:
  // starting the expensive points early keeps an uneven grid from stalling
  // the pool on one giant tail run.  The reorder is bounded to blocks of
  // consecutive tasks — folds (and therefore checkpoints and capture
  // release) advance strictly in task order, so a global sort would hold
  // every fold hostage to the cheapest task it scheduled last.  This
  // permutes only which worker picks what, never the fold order, so output
  // bytes are unaffected.
  std::vector<std::size_t> schedule = pending;
  const std::size_t window = std::max<std::size_t>(
      8, 4 * static_cast<std::size_t>(std::max(sweep.jobs, 1)));
  for (std::size_t b = 0; b < schedule.size(); b += window) {
    const auto first = schedule.begin() + static_cast<std::ptrdiff_t>(b);
    const auto last =
        schedule.begin() +
        static_cast<std::ptrdiff_t>(std::min(b + window, schedule.size()));
    std::stable_sort(first, last, [&](std::size_t a, std::size_t c) {
      return point_cost[task_point(a)] > point_cost[task_point(c)];
    });
  }

  std::string progress_label = "sweep";
  if (sweep.shard_count > 1) {
    progress_label += " shard " + std::to_string(sweep.shard_index) + "/" +
                      std::to_string(sweep.shard_count);
  }
  const bool err_is_stderr_tty = &err == &std::cerr && stderr_is_tty();
  ProgressReporter progress(std::move(progress_label), n_owned, owned_weight,
                            n_owned - pending.size(), restored_weight,
                            sweep.progress || err_is_stderr_tty,
                            err_is_stderr_tty, err);

  // Diagnostics produced mid-sweep are buffered and replayed after the
  // progress line finishes: run failures separately from the first merge
  // error (reported only when every run succeeded), checkpoint-write
  // failures last.
  std::vector<PointResult> results(n_tasks);
  std::atomic<std::size_t> next_slot{0};
  std::mutex fold_mu;
  std::vector<char> task_ready(n_tasks, 0);
  std::size_t fold_cursor = 0;  // index into pending
  std::size_t folds_since_ckpt = 0;
  std::optional<SweepLogWriter> ckpt_log_writer;
  if (!sweep.checkpoint_path.empty()) {
    ckpt_log_writer.emplace(sweep.checkpoint_path, manifest);
  }
  std::ostringstream failure_log;
  std::ostringstream merge_log;
  std::ostringstream ckpt_log;
  bool any_failed = false;
  bool merge_failed = false;
  bool checkpoint_failed = false;

  // Folds one completed task (caller holds fold_mu; called in task order).
  auto fold_task = [&](std::size_t t) {
    PointResult& res = results[t];
    const std::size_t p = task_point(t);
    const auto& point = grid[p];
    const std::uint64_t rep = t % static_cast<std::size_t>(n_rep);
    if (res.rc != 0) {
      failure_log << "error: sweep point " << point_label(sweep.axes, point)
                  << replicate_label(sweep, rep, n_rep) << " failed";
      if (!res.error.empty()) {
        failure_log << " with exception: " << res.error;
      } else {
        failure_log << " (exit code " << res.rc << ")";
      }
      failure_log << '\n';
      any_failed = true;
    } else if (!any_failed && !merge_failed && !res.trace.header.empty()) {
      RunTrace& trace = res.trace;
      if (header.empty()) {
        header = trace.header;
      } else if (trace.header != header) {
        merge_log << "error: sweep point " << point_label(sweep.axes, point)
                  << replicate_label(sweep, rep, n_rep)
                  << " emitted CSV header '" << trace.header
                  << "' but earlier points emitted '" << header << "'\n";
        merge_failed = true;
      }
      if (!merge_failed) {
        open.csv_header = header;
        if (n_rep == 1) {
          // The raw aggregate passes rows, ragged ones too, verbatim.
          for (const auto& row : trace.rows) {
            open.lines.push_back(summary::join_csv(row));
          }
        } else {
          if (!open_acc.has_value()) {
            open_acc.emplace(summary::split_csv(header));
          }
          for (auto& row : trace.rows) {
            if (!open_acc->add_row(std::move(row), merge_log)) {
              merge_log << "  (sweep point " << point_label(sweep.axes, point)
                        << replicate_label(sweep, rep, n_rep) << ")\n";
              merge_failed = true;
              break;
            }
          }
        }
      }
    }
    // Folded (or unusable): release the capture.
    res.trace = RunTrace{};
    ++n_folded;
    if (rep + 1 != static_cast<std::uint64_t>(n_rep)) return;
    // The point's last replicate: reduce it to its aggregate lines.
    if (!any_failed && !merge_failed) {
      if (open_acc.has_value() && open_acc->row_count() > 0) {
        open.stats_header = summary::join_csv(open_acc->header(sweep.stats));
        for (const auto& srow : open_acc->summarize(sweep.stats)) {
          open.lines.push_back(summary::join_csv(srow));
        }
      }
      open.index = p;
      finished[p] = std::move(open);
      unlogged.push_back(p);
    }
    open = FinishedPoint{};
    open_acc.reset();
  };

  // Appends one record to the checkpoint log: the points that finished
  // since the last one (caller holds fold_mu).  Appends stop once a
  // failure is recorded: a resume must never skip a failed point.
  // `force` bypasses the checkpoint-every gate (but never the failure
  // disarm) for the interrupt-flush path.
  auto write_checkpoint = [&](bool force) {
    if (!ckpt_log_writer.has_value() || checkpoint_failed || any_failed ||
        merge_failed) {
      return;
    }
    const bool all_done = fold_cursor == pending.size();
    if (!force &&
        folds_since_ckpt <
            static_cast<std::size_t>(sweep.checkpoint_every) &&
        !all_done) {
      return;
    }
    folds_since_ckpt = 0;
    std::vector<const FinishedPoint*> delta;
    delta.reserve(unlogged.size());
    for (std::size_t p : unlogged) delta.push_back(&*finished[p]);
    if (ckpt_log_writer->append(++heartbeat, n_folded, delta, ckpt_log)) {
      unlogged.clear();
    } else {
      checkpoint_failed = true;
    }
  };

  auto worker = [&] {
    for (;;) {
      // An interrupt lets the in-flight run finish (its result still folds
      // and checkpoints) but claims nothing further.
      if (g_sweep_interrupt.load(std::memory_order_relaxed)) return;
      const std::size_t slot = next_slot.fetch_add(1);
      if (slot >= schedule.size()) return;
      const std::size_t t = schedule[slot];
      const std::uint64_t rep = t % static_cast<std::size_t>(n_rep);
      std::ostringstream sink;
      ScenarioOptions opts = point_options(grid[task_point(t)]);
      // When replicating, every replicate's seed — including replicate 0 —
      // derives from the same effective base (`--seed`, defaulting to 0),
      // so the replicate set is a pure function of the base seed and does
      // not half-overlap between a bare sweep and `--seed 0`.  A single
      // replicate keeps the base options untouched (seed unset means the
      // scenario default), reproducing a plain sweep byte-for-byte.
      if (n_rep > 1) {
        opts.seed = derive_replicate_seed(sweep.base.seed.value_or(0), rep);
      }
      opts.set_output(sink);
      opts.bind_specs(&scenario.params);
      try {
        results[t].rc = scenario.fn(opts);
      } catch (const std::exception& e) {
        results[t].rc = -1;
        results[t].error = e.what();
      } catch (...) {
        // Anything escaping the thread body would std::terminate the whole
        // sweep; degrade to a labelled per-point failure instead.
        results[t].rc = -1;
        results[t].error = "unknown exception";
      }
      // Strip commentary and split cells here, in the worker, so the fold
      // (serialized behind fold_mu) only replays pre-parsed rows.
      results[t].trace = RunTrace::parse_text(sink.str());
      {
        std::lock_guard<std::mutex> lock(fold_mu);
        task_ready[t] = 1;
        while (fold_cursor < pending.size()) {
          const std::size_t next = pending[fold_cursor];
          if (task_ready[next] == 0) break;
          fold_task(next);
          ++fold_cursor;
          ++folds_since_ckpt;
          write_checkpoint(/*force=*/false);
        }
      }
      progress.task_done(point_cost[task_point(t)]);
    }
  };
  const std::size_t n_workers = std::min<std::size_t>(
      schedule.size(), static_cast<std::size_t>(std::max(sweep.jobs, 1)));
  if (n_workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (std::size_t i = 0; i < n_workers; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  progress.finish();

  const bool interrupted = g_sweep_interrupt.load(std::memory_order_relaxed);
  if (interrupted) {
    // Best-effort final flush: capture whatever finished past the last
    // periodic append, so a --resume continues from the interrupt point
    // instead of the last checkpoint-every boundary.
    if (!sweep.checkpoint_path.empty()) {
      std::lock_guard<std::mutex> lock(fold_mu);
      write_checkpoint(/*force=*/true);
    }
    err << failure_log.str() << merge_log.str() << ckpt_log.str();
    if (!sweep.checkpoint_path.empty() && !checkpoint_failed && !any_failed &&
        !merge_failed) {
      err << "sweep: interrupted; checkpoint flushed to '"
          << sweep.checkpoint_path << "' (continue with --resume)\n";
    } else {
      err << "sweep: interrupted\n";
    }
    return 1;
  }
  if (any_failed) {
    err << failure_log.str();
    return 1;
  }
  if (merge_failed) {
    err << merge_log.str();
    return 1;
  }
  if (checkpoint_failed) {
    err << ckpt_log.str();
    return 2;
  }
  // A fully-restored resume ran no workers, so the end-of-sweep append did
  // not happen in the fold loop; it writes the restored points here.
  if (!sweep.checkpoint_path.empty() && schedule.empty()) {
    std::lock_guard<std::mutex> lock(fold_mu);
    write_checkpoint(/*force=*/false);
    if (checkpoint_failed) {
      err << ckpt_log.str();
      return 2;
    }
  }

  if (sweep.shard_count > 1) {
    // Shards do not emit CSV: the partial is a one-record log of the
    // shard's finished points (every point it owns) for `tfmcc_sim merge`
    // to place into the full grid.
    std::vector<const FinishedPoint*> done;
    for (const auto& p : finished) {
      if (p.has_value()) done.push_back(&*p);
    }
    const SweepLogEncoder partial{SweepLogKind::kPartial, manifest};
    out << partial.head() << partial.record(1, n_folded, done);
    return 0;
  }

  return emit_sweep_aggregate(manifest, grid, finished, out, err);
}

int sweep_main(int argc, char** argv, std::ostream& err) {
  if (argc < 1 || std::string_view{argv[0]}.substr(0, 2) == "--") {
    err << "usage: tfmcc_sim sweep <scenario> --sweep key=v1,v2,... "
           "[--sweep key=lo:hi:logN]... [--jobs N] [--replicate N] "
           "[--stats mean,stddev,cov,min,max] [--progress] "
           "[--shard i/n] [--checkpoint <path>] [--checkpoint-every N] "
           "[--resume <path>] "
           "[--duration <s>] [--seed <n>] [--set key=value]... "
           "[--output <path>]\n";
    return 2;
  }
  const std::string_view name = argv[0];
  const Scenario* scenario = ScenarioRegistry::instance().find(name);
  if (scenario == nullptr) {
    err << "error: unknown scenario '" << name << "'\nknown scenarios:\n";
    for (const auto& n : ScenarioRegistry::instance().names()) {
      err << "  " << n << '\n';
    }
    return 2;
  }

  SweepOptions sweep;
  bool stats_given = false;
  std::vector<char*> passthrough;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--sweep") {
      if (!has_value) {
        err << "error: --sweep expects key=v1,v2,... or key=lo:hi:linN|logN\n";
        return 2;
      }
      const std::string_view spec_text = argv[i + 1];
      const std::size_t eq = spec_text.find('=');
      const ParamSpec* spec =
          eq == std::string_view::npos
              ? nullptr
              : scenario->find_param(spec_text.substr(0, eq));
      SweepAxis axis;
      if (!parse_sweep_axis(spec_text, spec, axis, err)) return 2;
      sweep.axes.push_back(std::move(axis));
      ++i;
    } else if (arg == "--jobs") {
      char* end = nullptr;
      const long jobs = has_value ? std::strtol(argv[i + 1], &end, 10) : 0;
      if (!has_value || end == argv[i + 1] || *end != '\0' || jobs < 1 ||
          jobs > 1024) {
        err << "error: --jobs expects an integer between 1 and 1024\n";
        return 2;
      }
      sweep.jobs = static_cast<int>(jobs);
      ++i;
    } else if (arg == "--replicate") {
      char* end = nullptr;
      const long reps = has_value ? std::strtol(argv[i + 1], &end, 10) : 0;
      if (!has_value || end == argv[i + 1] || *end != '\0' || reps < 1 ||
          reps > 100'000) {
        err << "error: --replicate expects an integer between 1 and 1e5\n";
        return 2;
      }
      sweep.replicate = static_cast<int>(reps);
      ++i;
    } else if (arg == "--stats") {
      if (!has_value ||
          !summary::parse_stats(argv[i + 1], sweep.stats, err)) {
        if (!has_value) {
          err << "error: --stats expects a comma-separated subset of "
                 "mean,stddev,cov,min,max\n";
        }
        return 2;
      }
      stats_given = true;
      ++i;
    } else if (arg == "--shard") {
      // i/n: this invocation runs shard i of n and writes a partial
      // artifact for `tfmcc_sim merge`.
      bool ok = has_value;
      if (ok) {
        const std::string_view spec = argv[i + 1];
        const std::size_t slash = spec.find('/');
        ok = slash != std::string_view::npos;
        if (ok) {
          char* end = nullptr;
          const std::string text{spec};
          const long index = std::strtol(text.c_str(), &end, 10);
          ok = end == text.c_str() + slash;
          char* end2 = nullptr;
          const long count =
              ok ? std::strtol(text.c_str() + slash + 1, &end2, 10) : 0;
          ok = ok && end2 == text.c_str() + text.size() && count >= 1 &&
               count <= 10'000 && index >= 0 && index < count;
          if (ok) {
            sweep.shard_index = static_cast<int>(index);
            sweep.shard_count = static_cast<int>(count);
          }
        }
      }
      if (!ok) {
        err << "error: --shard expects i/n with 0 <= i < n <= 10000 "
               "(e.g. --shard 0/3)\n";
        return 2;
      }
      ++i;
    } else if (arg == "--checkpoint") {
      if (!has_value) {
        err << "error: --checkpoint expects a file path\n";
        return 2;
      }
      sweep.checkpoint_path = argv[i + 1];
      ++i;
    } else if (arg == "--checkpoint-every") {
      char* end = nullptr;
      const long every = has_value ? std::strtol(argv[i + 1], &end, 10) : 0;
      if (!has_value || end == argv[i + 1] || *end != '\0' || every < 1 ||
          every > 1'000'000) {
        err << "error: --checkpoint-every expects an integer between 1 "
               "and 1e6\n";
        return 2;
      }
      sweep.checkpoint_every = static_cast<int>(every);
      ++i;
    } else if (arg == "--resume") {
      if (!has_value) {
        err << "error: --resume expects a checkpoint file path\n";
        return 2;
      }
      sweep.resume_path = argv[i + 1];
      ++i;
    } else if (arg == "--progress") {
      sweep.progress = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (stats_given && sweep.replicate == 1) {
    // A single replicate emits raw rows, so a stats selection would be
    // silently dead; make the contradiction loud.
    err << "error: --stats requires --replicate greater than 1\n";
    return 2;
  }
  if (!parse_scenario_options(static_cast<int>(passthrough.size()),
                              passthrough.data(), sweep.base, err)) {
    return 2;
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (sweep.base.output_path.has_value()) {
    if (!open_output_file(*sweep.base.output_path, file, err)) return 2;
    out = &file;
  }

  // While checkpointing, SIGTERM/SIGINT request a graceful stop — workers
  // drain, a final checkpoint is flushed, and the process exits nonzero
  // with the state resumable — instead of killing the process between
  // periodic writes.  Handlers are scoped to the run: restored before
  // returning so a caller embedding sweep_main keeps its own disposition.
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction old_term {};
  struct sigaction old_int {};
  const bool trap_signals = !sweep.checkpoint_path.empty();
  if (trap_signals) {
    struct sigaction sa {};
    sa.sa_handler = [](int) { request_sweep_interrupt(); };
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, &old_term);
    sigaction(SIGINT, &sa, &old_int);
  }
#endif
  const int rc = run_sweep(*scenario, sweep, *out, err);
#if defined(__unix__) || defined(__APPLE__)
  if (trap_signals) {
    sigaction(SIGTERM, &old_term, nullptr);
    sigaction(SIGINT, &old_int, nullptr);
  }
#endif
  if (file.is_open() &&
      !finish_output_file(*sweep.base.output_path, file, err)) {
    return 2;
  }
  return rc;
}

}  // namespace tfmcc
