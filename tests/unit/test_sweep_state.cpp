// Unit tests for the sweep scale-out plumbing (sim/sweep_state.hpp):
// manifest round trip and mismatch diagnostics, the v3 log (record round
// trip, torn-tail tolerance at every cut, mid-file corruption and older
// versions refused, the writer's create-then-append contract, the
// checkpoint progress reader), checkpoint/resume edge cases (checkpoints
// covering only the first point and all but the last, a torn tail, grid
// mismatch), shard ownership and out-of-range indices, and library-level
// shard+merge byte-identity against the unsharded aggregate.

#include "sim/sweep_state.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "util/csv.hpp"

namespace tfmcc {
namespace {

// Deterministic probe: one CSV row that is a pure function of x, so
// checkpoint logs can be hand-built and compared exactly.
TFMCC_SCENARIO(test_state_probe, "sweep state probe",
               tfmcc::param("x", 1, "integer factor", 0)) {
  const int x = opts.param_or("x", 1);
  auto& os = opts.out();
  os << "# state probe\n";
  CsvWriter csv(os, {"x", "sample"});
  csv.row(x, 2 * x);
  os << "NOTE: done\n";
  return 0;
}

const Scenario& probe() {
  const Scenario* s = ScenarioRegistry::instance().find("test_state_probe");
  EXPECT_NE(s, nullptr);
  return *s;
}

SweepOptions three_point_sweep() {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3"}}};
  return sweep;
}

std::string sweep_output(const SweepOptions& sweep, int expected_rc = 0,
                         std::string* err_out = nullptr) {
  std::ostringstream out, err;
  const int rc = run_sweep(probe(), sweep, out, err);
  EXPECT_EQ(rc, expected_rc) << err.str();
  if (err_out != nullptr) *err_out = err.str();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tfmcc_sweep_state_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  ASSERT_TRUE(os.is_open()) << path;
  os << content;
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST(SweepManifest, SaveLoadRoundTripPreservesEveryField) {
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 4;
  sweep.stats = {summary::Stat::kMean, summary::Stat::kMax};
  sweep.base.seed = 77;
  sweep.base.set_param("x", "9");
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  const SweepManifest m = SweepManifest::from(probe(), sweep);
  EXPECT_EQ(m.n_points(), 3u);

  std::ostringstream os;
  m.save(os);
  std::istringstream is{os.str()};
  SweepManifest back;
  std::string err;
  ASSERT_TRUE(SweepManifest::load(is, back, err)) << err;
  std::ostringstream diag;
  EXPECT_TRUE(m.matches(back, /*ignore_shard_index=*/false, "copy", diag))
      << diag.str();
  EXPECT_EQ(back.scenario, "test_state_probe");
  EXPECT_EQ(back.seed, std::optional<std::uint64_t>{77});
  EXPECT_EQ(back.shard_index, 1);
  EXPECT_EQ(back.params,
            (std::vector<std::pair<std::string, std::string>>{{"x", "9"}}));
}

TEST(SweepManifest, MatchesNamesTheDifferingField) {
  const SweepManifest base = SweepManifest::from(probe(), three_point_sweep());
  auto expect_mismatch = [&](SweepManifest other, std::string_view token) {
    std::ostringstream diag;
    EXPECT_FALSE(base.matches(other, false, "checkpoint", diag));
    EXPECT_NE(diag.str().find(token), std::string::npos) << diag.str();
  };
  SweepManifest rep = base;
  rep.replicate = 5;
  expect_mismatch(rep, "--replicate");
  SweepManifest axis = base;
  axis.axes[0].values.pop_back();
  expect_mismatch(axis, "sweep grid");
  SweepManifest seed = base;
  seed.seed = 3;
  expect_mismatch(seed, "--seed");
  SweepManifest shard = base;
  shard.shard_index = 1;
  shard.shard_count = 2;
  expect_mismatch(shard, "shard count");
}

TEST(SweepManifest, LoadRejectsTruncation) {
  std::ostringstream os;
  SweepManifest::from(probe(), three_point_sweep()).save(os);
  const std::string text = os.str();
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    std::istringstream is{text.substr(0, len)};
    SweepManifest out;
    std::string err;
    EXPECT_FALSE(SweepManifest::load(is, out, err)) << "prefix " << len;
  }
}

TEST(ShardOwnership, RoundRobinByPointIndex) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  const SweepManifest m = SweepManifest::from(probe(), sweep);
  EXPECT_FALSE(shard_owns_point(m, 0));
  EXPECT_TRUE(shard_owns_point(m, 1));
  EXPECT_FALSE(shard_owns_point(m, 2));
}

/// The points run_sweep finishes for the (unsharded, replicate-1)
/// three-point probe sweep: point i prints the row "x,2x".
FinishedPoint probe_point(std::size_t i) {
  const int x = static_cast<int>(i) + 1;
  return FinishedPoint{
      i, "x,sample", "", {std::to_string(x) + "," + std::to_string(2 * x)}};
}

std::vector<const FinishedPoint*> ptrs(
    const std::vector<FinishedPoint>& points) {
  std::vector<const FinishedPoint*> out;
  for (const auto& p : points) out.push_back(&p);
  return out;
}

SweepLogEncoder probe_encoder(SweepLogKind kind = SweepLogKind::kCheckpoint) {
  return SweepLogEncoder{kind,
                         SweepManifest::from(probe(), three_point_sweep())};
}

/// A record of the three-point probe sweep's log (of either kind: the
/// kind lives in the magic line only).
std::string record_of(std::uint64_t heartbeat, std::uint64_t folded,
                      const std::vector<FinishedPoint>& points) {
  return probe_encoder().record(heartbeat, folded, ptrs(points));
}

std::string probe_head(SweepLogKind kind = SweepLogKind::kCheckpoint) {
  return probe_encoder(kind).head();
}

/// A checkpoint as run_sweep would leave it after the first `finished`
/// points of the three-point sweep finished: one record per point.
std::string checkpoint_after(std::size_t finished) {
  std::string log = probe_head();
  for (std::size_t i = 0; i < finished; ++i) {
    log += record_of(i + 1, i + 1, {probe_point(i)});
  }
  return log;
}

SweepLog parse_ok(const std::string& bytes) {
  SweepLog log;
  std::string err;
  EXPECT_TRUE(parse_sweep_log(bytes, log, err)) << err;
  return log;
}

std::string parse_error(const std::string& bytes) {
  SweepLog log;
  std::string err;
  EXPECT_FALSE(parse_sweep_log(bytes, log, err));
  EXPECT_FALSE(err.empty());
  return err;
}

TEST(SweepLog, RecordRoundTripIsExact) {
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 2;
  const SweepManifest m = SweepManifest::from(probe(), sweep);
  // Lines are length-prefixed, so any bytes survive: newlines, colons,
  // empty strings.
  const std::vector<FinishedPoint> first{
      {0, "x,sample", "x_mean,x_cov", {"1,0", "", "a\nb:c"}},
      {1, "", "", {}}};
  const std::vector<FinishedPoint> second{
      {2, "x,sample", "x_mean,x_cov", {"3,0.5"}}};
  const SweepLogEncoder enc{SweepLogKind::kCheckpoint, m};
  const std::string bytes = enc.head() + enc.record(4, 4, ptrs(first)) +
                            enc.record(5, 6, ptrs(second));
  const SweepLog log = parse_ok(bytes);
  EXPECT_EQ(log.kind, SweepLogKind::kCheckpoint);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.heartbeat, 5u);
  EXPECT_EQ(log.folded_tasks, 6u);
  std::ostringstream diag;
  EXPECT_TRUE(log.manifest.matches(m, false, "copy", diag)) << diag.str();
  ASSERT_EQ(log.points.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const FinishedPoint& want = i < 2 ? first[i] : second[0];
    EXPECT_EQ(log.points[i].index, want.index);
    EXPECT_EQ(log.points[i].csv_header, want.csv_header);
    EXPECT_EQ(log.points[i].stats_header, want.stats_header);
    EXPECT_EQ(log.points[i].lines, want.lines);
  }
}

TEST(SweepLog, TornFinalRecordIsDroppedAtEveryCut) {
  const std::string whole = checkpoint_after(2);
  const std::size_t last = checkpoint_after(1).size();
  for (std::size_t len = last + 1; len < whole.size(); ++len) {
    const SweepLog log = parse_ok(whole.substr(0, len));
    EXPECT_TRUE(log.torn_tail) << "cut at " << len;
    EXPECT_EQ(log.points.size(), 1u) << "cut at " << len;
    EXPECT_EQ(log.heartbeat, 1u) << "cut at " << len;
  }
  EXPECT_FALSE(parse_ok(whole.substr(0, last)).torn_tail);
}

TEST(SweepLog, TruncatedManifestIsRefused) {
  const std::string head = probe_head();
  for (std::size_t len = 0; len < head.size(); ++len) {
    parse_error(head.substr(0, len));
  }
}

TEST(SweepLog, MidFileCorruptionIsRefused) {
  const std::string whole = checkpoint_after(3);
  // A changed byte inside an earlier record's payload fails its checksum.
  const std::size_t at = checkpoint_after(1).size() - 3;
  std::string flipped = whole;
  flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
  EXPECT_NE(parse_error(flipped).find("checksum mismatch"), std::string::npos);
  // So does one inside the manifest.
  std::string manifest_flip = whole;
  manifest_flip[probe_head().size() - 2] ^= 0x01;
  EXPECT_NE(parse_error(manifest_flip).find("checksum"), std::string::npos);
  // Garbage after the last record is damage, not a torn record.
  EXPECT_NE(parse_error(whole + "garbage\n").find("malformed"),
            std::string::npos);
}

TEST(SweepLog, OlderFormatVersionsAreRefused) {
  const std::string v2 =
      "TFMCC-SWEEP-CKPT 2\nprogress 1 1 3\nmanifest 2\nscenario 3:zzz";
  EXPECT_NE(parse_error(v2).find("unsupported sweep state version"),
            std::string::npos);
  EXPECT_NE(parse_error("TFMCC-SWEEP-PART 2\nmanifest 2\n")
                .find("unsupported sweep state version"),
            std::string::npos);
  EXPECT_NE(parse_error("not a log\n").find("bad magic"), std::string::npos);
}

TEST(SweepLog, RefusesPointsOutOfOrderUnownedOrCountersBackwards) {
  const std::string head = probe_head();
  EXPECT_NE(parse_error(head + record_of(1, 2, {probe_point(1)}) +
                        record_of(2, 3, {probe_point(0)}))
                .find("out of order"),
            std::string::npos);
  EXPECT_NE(parse_error(head + record_of(1, 1, {FinishedPoint{7, "", "", {}}}))
                .find("out of order or not owned"),
            std::string::npos);
  // The heartbeat must tick on every record, and a recorded point counts
  // its replicates as folded.
  EXPECT_NE(parse_error(head + record_of(2, 1, {}) + record_of(2, 1, {}))
                .find("inconsistent"),
            std::string::npos);
  EXPECT_NE(parse_error(head + record_of(1, 0, {probe_point(0)}))
                .find("inconsistent"),
            std::string::npos);

  SweepOptions sharded = three_point_sweep();
  sharded.shard_index = 1;
  sharded.shard_count = 2;
  const SweepLogEncoder shard{SweepLogKind::kCheckpoint,
                              SweepManifest::from(probe(), sharded)};
  EXPECT_NE(parse_error(shard.head() + shard.record(1, 1, ptrs({probe_point(0)})))
                .find("not owned"),
            std::string::npos);
}

TEST(SweepLog, RecordsSplicedFromAnotherSweepFailTheirChecksum) {
  SweepOptions other = three_point_sweep();
  other.base.seed = 5;
  const SweepLogEncoder enc{SweepLogKind::kCheckpoint,
                            SweepManifest::from(probe(), other)};
  EXPECT_NE(parse_error(probe_head() + enc.record(1, 1, ptrs({probe_point(0)})))
                .find("checksum mismatch"),
            std::string::npos);
}

TEST(SweepLogWriter, FirstAppendReplacesTheFileLaterOnesExtendIt) {
  const std::string path = temp_path("writer.log");
  write_file(path, "stale bytes from an older run");
  const SweepManifest m = SweepManifest::from(probe(), three_point_sweep());
  {
    SweepLogWriter writer{path, m};
    std::ostringstream err;
    const std::vector<FinishedPoint> points{probe_point(0), probe_point(1),
                                            probe_point(2)};
    ASSERT_TRUE(writer.append(1, 1, {&points[0]}, err)) << err.str();
    EXPECT_EQ(read_file(path), checkpoint_after(1));
    ASSERT_TRUE(writer.append(2, 2, {&points[1]}, err));
    ASSERT_TRUE(writer.append(3, 3, {&points[2]}, err));
  }
  EXPECT_EQ(read_file(path), checkpoint_after(3));
  std::remove(path.c_str());
}

TEST(SweepLogWriter, UnwritableDirectoryIsDiagnosed) {
  SweepLogWriter writer{temp_path("no_such_dir/x.log"),
                        SweepManifest::from(probe(), three_point_sweep())};
  std::ostringstream err;
  EXPECT_FALSE(writer.append(1, 0, {}, err));
  EXPECT_NE(err.str().find("error:"), std::string::npos) << err.str();
}

TEST(SweepLog, ReadMissingFileIsDiagnosed) {
  SweepLog back;
  std::ostringstream err;
  EXPECT_FALSE(read_sweep_log(temp_path("nonexistent.bin"), back, err));
  EXPECT_NE(err.str().find("cannot open"), std::string::npos) << err.str();
}

// --- checkpoint progress (read_checkpoint_progress) -----------------------

TEST(CheckpointProgress, ReadsTheLastCompleteRecord) {
  const std::string path = temp_path("progress.bin");
  const std::string two = checkpoint_after(2);
  write_file(path, two);
  CheckpointProgress p;
  std::string err;
  ASSERT_TRUE(read_checkpoint_progress(path, p, err)) << err;
  EXPECT_EQ(p.heartbeat, 2u);
  EXPECT_EQ(p.folded_tasks, 2u);
  // A torn third record leaves the second as the last complete one.
  const std::string three = checkpoint_after(3);
  write_file(path, three.substr(0, (two.size() + three.size()) / 2));
  ASSERT_TRUE(read_checkpoint_progress(path, p, err)) << err;
  EXPECT_EQ(p.heartbeat, 2u);
  std::remove(path.c_str());
}

TEST(CheckpointProgress, RefusesMissingGarbageOlderVersionsAndPartials) {
  CheckpointProgress p;
  std::string err;
  EXPECT_FALSE(read_checkpoint_progress(temp_path("no_ckpt.bin"), p, err));

  const std::string garbage = temp_path("garbage_ckpt.bin");
  write_file(garbage, "not a checkpoint at all\n");
  EXPECT_FALSE(read_checkpoint_progress(garbage, p, err));
  EXPECT_NE(err.find("cannot load"), std::string::npos) << err;

  const std::string v2 = temp_path("v2_ckpt.bin");
  write_file(v2, "TFMCC-SWEEP-CKPT 2\nprogress 9 3 3\n");
  EXPECT_FALSE(read_checkpoint_progress(v2, p, err));

  // A shard partial is not a progress signal; reading one must fail
  // loudly rather than invent progress.
  const std::string ppath = temp_path("part_as_progress.bin");
  write_file(ppath, probe_head(SweepLogKind::kPartial) +
                        record_of(1, 0, {}));
  EXPECT_FALSE(read_checkpoint_progress(ppath, p, err));
  EXPECT_NE(err.find("shard partial"), std::string::npos) << err;

  std::remove(garbage.c_str());
  std::remove(v2.c_str());
  std::remove(ppath.c_str());
}

// --- checkpoint/resume through run_sweep ---------------------------------

TEST(Resume, CheckpointCoveringOnlyPointZeroYieldsIdenticalOutput) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("task0.bin");
  write_file(path, checkpoint_after(1));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, CheckpointCoveringAllButTheLastPointYieldsIdenticalOutput) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("all_but_last.bin");
  write_file(path, checkpoint_after(2));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, FullyFinishedCheckpointRunsNothingAndReEmits) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("complete.bin");
  write_file(path, checkpoint_after(3));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, WritingACheckpointThenResumingItIsIdentical) {
  const std::string path = temp_path("own.bin");
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 3;
  sweep.checkpoint_path = path;
  sweep.checkpoint_every = 1;
  const std::string full = sweep_output(sweep);
  // One append per fold, each carrying only what finished since the last.
  const SweepLog log = parse_ok(read_file(path));
  EXPECT_EQ(log.heartbeat, 9u);
  EXPECT_EQ(log.folded_tasks, 9u);
  EXPECT_EQ(log.points.size(), 3u);
  SweepOptions resumed = three_point_sweep();
  resumed.replicate = 3;
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, TornTailResumesIdenticallyAndTheFirstAppendDropsIt) {
  const std::string path = temp_path("torn.bin");
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 2;
  sweep.checkpoint_path = path;
  sweep.checkpoint_every = 1;
  const std::string full = sweep_output(sweep);
  // Keep the records up to point 0 finishing, plus half of the next one.
  const std::string log = read_file(path);
  std::size_t cut = 0;
  for (std::size_t len = 1; len <= log.size(); ++len) {
    SweepLog probe_log;
    std::string err;
    if (parse_sweep_log(log.substr(0, len), probe_log, err) &&
        !probe_log.torn_tail && probe_log.points.size() == 1) {
      cut = len;
      break;
    }
  }
  ASSERT_GT(cut, 0u);
  const std::size_t next_end = log.find("record ", cut + 1);
  const std::size_t half =
      cut + ((next_end == std::string::npos ? log.size() : next_end) - cut) / 2;
  write_file(path, log.substr(0, half));
  EXPECT_TRUE(parse_ok(read_file(path)).torn_tail);

  SweepOptions resumed = sweep;
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  const SweepLog after = parse_ok(read_file(path));
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.points.size(), 3u);
  EXPECT_EQ(after.folded_tasks, 6u);
  std::remove(path.c_str());
}

TEST(Resume, RefusesAGridMismatch) {
  const std::string path = temp_path("mismatch.bin");
  write_file(path, checkpoint_after(1));
  SweepOptions resumed;
  resumed.axes = {{"x", {"1", "2"}}};
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("does not match"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Resume, RefusesACorruptCheckpoint) {
  const std::string path = temp_path("corrupt.bin");
  std::string bytes = checkpoint_after(2);
  bytes[probe_head().size() + 20] ^= 0x20;
  write_file(path, bytes);
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("error: cannot load"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Resume, RefusesAnOlderFormatVersion) {
  const std::string path = temp_path("oldver.bin");
  write_file(path,
             "TFMCC-SWEEP-CKPT 2\nprogress 1 1 3\nmanifest 2\nscenario 3:zzz");
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("unsupported sweep state version"), std::string::npos)
      << err;
  std::remove(path.c_str());
}

TEST(Resume, RefusesAShardPartialFile) {
  const std::string path = temp_path("partial_as_ckpt.bin");
  write_file(path, probe_head(SweepLogKind::kPartial) +
                       record_of(1, 0, {}));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("shard partial"), std::string::npos) << err;
  std::remove(path.c_str());
}

// --- sharding and merge ---------------------------------------------------

TEST(Shard, IndexOutOfRangeIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 5;
  sweep.shard_count = 3;
  std::string err;
  sweep_output(sweep, 2, &err);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  sweep.shard_index = -1;
  sweep_output(sweep, 2, &err);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

int run_merge(const std::vector<std::string>& args, std::string* err_out) {
  std::vector<std::string> owned = args;
  std::vector<char*> argv;
  for (auto& a : owned) argv.push_back(a.data());
  std::ostringstream err;
  const int rc =
      merge_main(static_cast<int>(argv.size()), argv.data(), err);
  if (err_out != nullptr) *err_out = err.str();
  return rc;
}

/// Runs the probe sweep sharded n ways, writes each partial to a temp
/// file, merges with the CLI entry point, and returns the merged CSV.
std::string shard_and_merge(SweepOptions base, int n_shards,
                            const std::string& tag) {
  std::vector<std::string> args;
  const std::string out_path = temp_path(tag + "_merged.csv");
  args.push_back("--output");
  args.push_back(out_path);
  std::vector<std::string> part_paths;
  for (int s = 0; s < n_shards; ++s) {
    SweepOptions sharded = base;
    sharded.shard_index = s;
    sharded.shard_count = n_shards;
    const std::string part = sweep_output(sharded);
    const std::string path =
        temp_path(tag + "_part" + std::to_string(s) + ".bin");
    write_file(path, part);
    part_paths.push_back(path);
    args.push_back(path);
  }
  std::string err;
  EXPECT_EQ(run_merge(args, &err), 0) << err;
  const std::string merged = read_file(out_path);
  std::remove(out_path.c_str());
  for (const auto& p : part_paths) std::remove(p.c_str());
  return merged;
}

TEST(ShardMerge, RawSweepMergesByteIdenticalToUnsharded) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3", "4", "5"}}};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 3, "raw"), full);
}

TEST(ShardMerge, ReplicatedSweepMergesByteIdenticalToUnsharded) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3", "4"}}};
  sweep.replicate = 3;
  sweep.stats = {summary::Stat::kMean, summary::Stat::kMin,
                 summary::Stat::kMax};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 2, "rep"), full);
}

TEST(ShardMerge, MoreShardsThanPointsLeavesSomeShardsEmpty) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 4, "sparse"), full);
}

TEST(MergeCli, NoArgumentsPrintsUsage) {
  std::string err;
  EXPECT_EQ(run_merge({}, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

TEST(MergeCli, IncompleteShardSetIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 0;
  sweep.shard_count = 2;
  const std::string path = temp_path("lonely_part.bin");
  write_file(path, sweep_output(sweep));
  std::string err;
  EXPECT_EQ(run_merge({path}, &err), 2);
  EXPECT_NE(err.find("sharded 2 ways but 1"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(MergeCli, DuplicateShardIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 0;
  sweep.shard_count = 2;
  const std::string path = temp_path("dup_part.bin");
  write_file(path, sweep_output(sweep));
  std::string err;
  EXPECT_EQ(run_merge({path, path}, &err), 2);
  EXPECT_NE(err.find("more than once"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(MergeCli, TruncatedPartialIsRefused) {
  std::vector<std::string> paths;
  for (int shard = 0; shard < 2; ++shard) {
    SweepOptions sweep = three_point_sweep();
    sweep.shard_index = shard;
    sweep.shard_count = 2;
    const std::string part = sweep_output(sweep);
    paths.push_back(temp_path("cut_part" + std::to_string(shard) + ".bin"));
    write_file(paths.back(), part);
  }
  // Cut inside the record, and exactly before it: both are refused.
  const std::string part0 = read_file(paths[0]);
  const std::size_t record_at = part0.find("\nrecord ") + 1;
  for (std::size_t cut : {part0.size() - 3, record_at}) {
    write_file(paths[0], part0.substr(0, cut));
    std::string err;
    EXPECT_EQ(run_merge(paths, &err), 2);
    EXPECT_NE(err.find("is truncated"), std::string::npos) << err;
  }
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(MergeCli, PartialLackingAnOwnedPointIsRefused) {
  // Shard 0/2 of the three-point sweep owns x=1 and x=3; this partial is
  // well-formed but holds only x=1.
  SweepOptions shard0 = three_point_sweep();
  shard0.shard_count = 2;
  const SweepLogEncoder enc{SweepLogKind::kPartial,
                            SweepManifest::from(probe(), shard0)};
  const std::vector<FinishedPoint> only_first{probe_point(0)};
  const std::string path0 = temp_path("short_part0.bin");
  write_file(path0, enc.head() + enc.record(1, 1, ptrs(only_first)));

  SweepOptions shard1 = shard0;
  shard1.shard_index = 1;
  const std::string path1 = temp_path("short_part1.bin");
  write_file(path1, sweep_output(shard1));

  const std::string out_path = temp_path("short_merged.csv");
  std::string err;
  EXPECT_EQ(run_merge({"--output", out_path, path0, path1}, &err), 2);
  EXPECT_NE(err.find("partial '" + path0 + "' (shard 0/2) lacks grid point "
                     "x=3"),
            std::string::npos)
      << err;
  std::remove(path0.c_str());
  std::remove(path1.c_str());
  std::remove(out_path.c_str());
}

TEST(MergeCli, CheckpointInsteadOfPartialIsRefused) {
  const std::string path = temp_path("ckpt_as_part.bin");
  write_file(path, checkpoint_after(1));
  std::string err;
  EXPECT_EQ(run_merge({path}, &err), 2);
  EXPECT_NE(err.find("not a shard partial"), std::string::npos) << err;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tfmcc
