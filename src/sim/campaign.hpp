#pragma once

// Fault-tolerant campaign supervisor: `tfmcc_sim campaign` runs the N
// shards of one sweep as child processes of this binary (fork/exec of
// `<self> sweep ... --shard i/n --checkpoint ... --output <partial>`),
// watches them, and merges the partials when every shard finishes.
//
// Supervision model:
//
//   * Liveness is observed through the checkpoint logs.  Every shard
//     checkpoints (`--checkpoint-every`, default 1 under a campaign), and
//     each append bumps the monotone heartbeat in the log's newest record;
//     the supervisor polls the last complete record
//     (read_checkpoint_progress).
//
//   * A shard that exits nonzero or dies on a signal is relaunched with
//     `--resume` from its last checkpoint, under exponential backoff
//     (campaign_backoff_seconds) with a per-shard retry cap.  Exit code 2
//     is treated as a configuration error and fails the shard immediately
//     — retrying a bad grid or an unwritable directory cannot succeed.
//
//   * A shard whose heartbeat/fold frontier stops advancing for longer
//     than `--stall-timeout` is declared a straggler, SIGKILLed, and
//     relaunched from its checkpoint (counting toward the same retry
//     cap).  The timeout must exceed the wall-clock of the slowest single
//     run plus a checkpoint write: heartbeats only tick when folds do.
//
//   * SIGINT/SIGTERM to the supervisor propagates SIGTERM to the
//     children — which flush a final checkpoint (see
//     request_sweep_interrupt) — and exits nonzero with every shard
//     resumable by rerunning the same campaign command.
//
//   * Degradation contract: when a shard exhausts its retries the
//     campaign does not merge.  It reports exactly which grid points are
//     missing (every point the failed shards own), leaves the surviving
//     partials and checkpoints in the campaign directory, and exits 2.
//
// Resumes are byte-exact (a resume re-runs every unfinished point on its
// deterministic seeds) and the merge path is the shared
// emit_sweep_aggregate, so a campaign's merged CSV is byte-identical to the
// unsharded `--jobs 1` sweep no matter how many times its shards crashed or
// stalled.

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace tfmcc {

struct CampaignOptions {
  /// Number of shard child processes (the n of `--shard i/n`).
  int shards{2};
  /// Worker threads per shard (forwarded as the child's --jobs).
  int jobs{1};
  /// Directory for checkpoints, partials, and per-shard logs.  Created if
  /// missing (one level); defaults to "campaign-<scenario>".
  std::string dir;
  /// No heartbeat/fold advance for this long declares a straggler.
  double stall_timeout_s{30.0};
  /// Per-shard relaunch cap (crashes and stragglers both count).
  int max_retries{5};
  /// Relaunch n waits min(backoff_base * 2^n, backoff_max) seconds.
  double backoff_base_s{0.5};
  double backoff_max_s{30.0};
  /// Supervisor loop tick: child reap + checkpoint-header poll cadence.
  double poll_interval_s{0.2};
  /// Binary to exec for shards; defaults to self_executable_path().  CI
  /// fault injection points this at a wrapper script.
  std::string exec_path;
  /// Merged CSV destination ("" = stdout).
  std::string output_path;
  /// Forwarded as the children's --checkpoint-every; 1 maximizes the
  /// heartbeat rate the stall detector sees.
  int checkpoint_every{1};
  /// Raw argv fragments forwarded verbatim to every shard's `sweep`
  /// command line (--sweep/--replicate/--stats/--duration/--seed/--set),
  /// so children re-parse exactly what the user wrote — no re-serialized
  /// value can drift from the manifest the supervisor validates against.
  std::vector<std::string> child_args;
  /// The same sweep parsed locally: grid bookkeeping (ownership, missing-
  /// point reports) and upfront validation.  Its jobs/shard fields are
  /// ignored — the campaign options above drive the children.
  SweepOptions sweep;
};

/// Backoff before relaunch number `relaunch` (0-based):
/// min(base_s * 2^relaunch, max_s).
double campaign_backoff_seconds(int relaunch, double base_s, double max_s);

/// Absolute path of the running executable (/proc/self/exe), "" when it
/// cannot be resolved — callers must then pass --exec explicitly.
std::string self_executable_path();

/// Runs the campaign to completion: launch, supervise, recover, merge.
/// Returns 0 with the merged CSV written, 1 when interrupted (shards
/// resumable), 2 when a shard exhausted retries (missing points reported,
/// partials preserved) or on configuration errors.
int run_campaign(const Scenario& scenario, const CampaignOptions& opts,
                 std::ostream& err);

/// CLI entry for `tfmcc_sim campaign <scenario> ...`: argv holds
/// everything after the `campaign` token.  Campaign flags (--shards,
/// --stall-timeout, --max-retries, --backoff-base, --backoff-max,
/// --poll-interval, --dir, --exec, --checkpoint-every, --output, --jobs)
/// are consumed here; sweep and single-run flags are validated and
/// forwarded to the shards.  Returns the process exit code.
int campaign_main(int argc, char** argv, std::ostream& err);

}  // namespace tfmcc
