#pragma once

// Sweep state on disk: sharding, checkpoint/resume, and the
// partial-aggregate artifacts `tfmcc_sim merge` places back together.
//
// The unit of persisted state is a *finished grid point*.  Once every
// replicate of a point has folded, the point's share of the aggregate is a
// fixed list of CSV lines — its raw rows, or its summary rows — and it
// never changes again.  So each finished point is written exactly once.
// Checkpoints and shard partials share one append-only log format (v3):
//
//   TFMCC-SWEEP-CKPT 3                (TFMCC-SWEEP-PART 3 for a partial)
//   manifest <length> <fnv1a64>       the sweep's manifest, framed
//   <length bytes>
//   record <length> <fnv1a64>         zero or more records, framed alike
//   <length bytes>
//
// Each frame carries its payload's byte length and FNV-1a-64 checksum.  A
// record holds the cumulative heartbeat and folded-task count and every
// point that finished since the previous record (see FinishedPoint).
//
// The determinism contract extends the `--jobs N == --jobs 1` byte
// identity in two directions:
//
//   * Sharding.  `--shard i/n` gives shard i every grid point p with
//     p % n == i (all of a point's replicates stay together).  A point's
//     lines are computed by exactly one owner from exactly the rows, in
//     exactly the order, the unsharded sweep would feed it, so `merge` only
//     places each point's lines by grid index.  The merged output is
//     byte-identical (`cmp`) to the unsharded aggregate.
//
//   * Resume.  A resumed sweep restores the finished points and re-runs
//     only the unfinished ones.  Seeds are a pure function of the grid
//     point and replicate, so the re-runs reproduce what the killed sweep
//     would have folded, byte for byte.
//
// Crash tolerance: a final record cut short (a crash mid-append) is
// dropped by every reader, and a resumed run's first append rewrites the
// log without it.  Any other damage — a checksum mismatch, a malformed
// frame, a record for a point the shard does not own — and any older
// (v2) file is refused with a diagnostic.  Both file kinds open with the
// manifest — scenario, axes, replicate count, stats, base overrides,
// shard — and a resume or merge that does not match the invoking sweep is
// refused rather than silently blended.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/summary.hpp"
#include "sim/sweep.hpp"

namespace tfmcc {

/// Everything that identifies one sweep: the fields two invocations must
/// agree on for their finished points to be interchangeable.
struct SweepManifest {
  std::string scenario;
  std::vector<SweepAxis> axes;
  int replicate{1};
  std::vector<summary::Stat> stats;
  std::optional<std::int64_t> duration_ns;
  std::optional<std::uint64_t> seed;
  /// Base `--set` overrides, in the options' (sorted-map) order.
  std::vector<std::pair<std::string, std::string>> params;
  int shard_index{0};
  int shard_count{1};

  static SweepManifest from(const Scenario& scenario,
                            const SweepOptions& sweep);

  std::size_t n_points() const;

  void save(std::ostream& os) const;
  static bool load(std::istream& is, SweepManifest& out, std::string& err);

  /// True when `other` describes the same sweep.  Otherwise writes a
  /// diagnostic naming the first differing field, prefixed with `what`
  /// ("checkpoint" / "partial").  `ignore_shard_index` is set when merging
  /// partials, which differ in shard index by construction.
  bool matches(const SweepManifest& other, bool ignore_shard_index,
               std::string_view what, std::ostream& err) const;
};

/// Shard ownership rule: grid point p belongs to shard p % shard_count.
/// Round-robin keeps monotone-cost ladders (2..2000 receivers) balanced
/// across shards instead of handing one shard the whole expensive tail.
bool shard_owns_point(const SweepManifest& m, std::size_t point);

/// One finished grid point's share of the aggregate.
struct FinishedPoint {
  std::size_t index{0};
  /// The CSV header the point's runs printed; "" when they printed none.
  std::string csv_header;
  /// Replicated sweeps only: the expanded statistics header its summary
  /// rows follow (`<col>_<stat>` and label names, comma-joined).  "" for
  /// raw sweeps and for points without rows.
  std::string stats_header;
  /// The aggregate lines, without the swept-value prefix: the raw rows, or
  /// the summary rows without the trailing n_rep cell.
  std::vector<std::string> lines;
};

enum class SweepLogKind { kCheckpoint, kPartial };

/// A parsed checkpoint or partial.
struct SweepLog {
  SweepLogKind kind{SweepLogKind::kCheckpoint};
  SweepManifest manifest;
  /// From the last complete record (0 when there is none).
  std::uint64_t heartbeat{0};
  std::uint64_t folded_tasks{0};
  /// Every finished point, in ascending grid index.
  std::vector<FinishedPoint> points;
  /// True when the file ended inside a record; that record was dropped.
  bool torn_tail{false};
};

/// Encodes one log: its head (the magic line and the framed manifest),
/// then records.  A record's checksum also covers the manifest, so records
/// spliced in from another sweep's log fail their checksum.
class SweepLogEncoder {
 public:
  SweepLogEncoder(SweepLogKind kind, const SweepManifest& manifest);

  const std::string& head() const { return head_; }

  /// One framed record: the cumulative heartbeat and folded-task count,
  /// and the points that finished since the previous record.
  std::string record(std::uint64_t heartbeat, std::uint64_t folded_tasks,
                     const std::vector<const FinishedPoint*>& points) const;

 private:
  std::string head_;
  std::uint64_t manifest_sum_{0};
};

/// Parses a whole log held in memory.  Returns false with a diagnostic in
/// `err` for anything but a valid log, or a valid log followed by one
/// incomplete record (which is dropped and reported in `torn_tail`).
bool parse_sweep_log(std::string_view bytes, SweepLog& out, std::string& err);

/// Reads and parses the log at `path`.  Returns false after an `error:`
/// diagnostic on `err` for a missing, unreadable or damaged file.
bool read_sweep_log(const std::string& path, SweepLog& out,
                    std::ostream& err);

/// Appends records to a checkpoint log.  The first append creates the file
/// whole — head plus record — through a temp file, fsync, rename and
/// directory fsync, so "the file exists" always means durable progress and
/// any older file under the name (a torn tail, or a log being resumed) is
/// replaced atomically.  Every later append is one O_APPEND write plus one
/// fdatasync.
class SweepLogWriter {
 public:
  SweepLogWriter(std::string path, const SweepManifest& manifest);
  ~SweepLogWriter();
  SweepLogWriter(const SweepLogWriter&) = delete;
  SweepLogWriter& operator=(const SweepLogWriter&) = delete;

  /// Appends one record (see SweepLogEncoder::record).  Returns false
  /// after an `error:` diagnostic on `err`.
  bool append(std::uint64_t heartbeat, std::uint64_t folded_tasks,
              const std::vector<const FinishedPoint*>& points,
              std::ostream& err);

 private:
  std::string path_;
  SweepLogEncoder encoder_;
  bool created_{false};
  int fd_{-1};  // open for O_APPEND once created (POSIX)
};

/// The progress view of a checkpoint, for tools that watch a running
/// sweep: the heartbeat append counter and the folded-task count.  The
/// heartbeat is monotone across a sweep's lifetime (resumes included).  The
/// folded count may step back across a resume by the replicates of points
/// that had not finished.
struct CheckpointProgress {
  std::uint64_t heartbeat{0};
  std::uint64_t folded_tasks{0};
};

/// Reads the last complete record of the checkpoint at `path`.  Returns
/// false (with a diagnostic in `err`) when the file is missing, is not a
/// checkpoint, or is damaged.
bool read_checkpoint_progress(const std::string& path, CheckpointProgress& out,
                              std::string& err);

/// Writes the final aggregate CSV from the finished points: the header,
/// then every present point's lines in grid order with the swept values
/// prepended.  `points` is parallel to the expanded grid and its callers
/// fill every entry; an empty one would emit nothing.  The unsharded
/// sweep, a resume and `merge` all end in this one
/// code path, which is what makes them byte-identical.  Returns nonzero
/// after a diagnostic when no point produced CSV, CSV headers disagree, or
/// replicated points expand to different statistics headers.
int emit_sweep_aggregate(const SweepManifest& manifest,
                         const std::vector<std::vector<std::string>>& grid,
                         const std::vector<std::optional<FinishedPoint>>& points,
                         std::ostream& out, std::ostream& err);

/// CLI entry for `tfmcc_sim merge [--output <path>] <partial>...`: loads
/// the shard partials, refuses mismatched or incomplete shard sets and any
/// partial that lacks a point its shard owns, and emits the combined
/// aggregate CSV.  Returns the process exit code.
int merge_main(int argc, char** argv, std::ostream& err);

}  // namespace tfmcc
