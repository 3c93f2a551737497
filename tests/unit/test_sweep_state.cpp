// Unit tests for the sweep checkpoint state (sim/sweep_state.hpp):
// manifest round trip and mismatch diagnostics, the v3 log (record round
// trip, torn-tail tolerance at every cut, mid-file corruption and older
// versions refused, the writer's create-then-append contract, the
// checkpoint progress reader, logs pinned byte for byte), and
// checkpoint/resume edge cases (checkpoints covering only the first point
// and all but the last, a torn tail, grid mismatch).

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
  auto& out = opts.out();
  out.figure_header("probe", "sweep state");
  CsvWriter csv(out, {"x", "sample"});
  csv.row(x, 2 * x);
  out.note("done");
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
  const SweepManifest m = SweepManifest::from(probe(), sweep);
  EXPECT_EQ(m.n_points(), 3u);

  std::ostringstream os;
  m.save(os);
  std::istringstream is{os.str()};
  SweepManifest back;
  std::string err;
  ASSERT_TRUE(SweepManifest::load(is, back, err)) << err;
  std::ostringstream diag;
  EXPECT_TRUE(m.matches(back, "copy", diag)) << diag.str();
  EXPECT_EQ(back.scenario, "test_state_probe");
  EXPECT_EQ(back.seed, std::optional<std::uint64_t>{77});
  EXPECT_EQ(back.params,
            (std::vector<std::pair<std::string, std::string>>{{"x", "9"}}));
}

TEST(SweepManifest, MatchesNamesTheDifferingField) {
  const SweepManifest base = SweepManifest::from(probe(), three_point_sweep());
  auto expect_mismatch = [&](SweepManifest other, std::string_view token) {
    std::ostringstream diag;
    EXPECT_FALSE(base.matches(other, "checkpoint", diag));
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

TEST(SweepManifest, LoadReadsDurationAndSeedOnlyAsWholeIntegers) {
  std::ostringstream os;
  SweepManifest::from(probe(), three_point_sweep()).save(os);
  const std::string text = os.str();
  // The manifest with its duration and seed tokens replaced.
  auto with = [&](const std::string& duration, const std::string& seed) {
    std::string t = text;
    t.replace(t.find("duration u"), 10, "duration " + duration);
    t.replace(t.find("seed u"), 6, "seed " + seed);
    return t;
  };
  auto load = [](const std::string& t, SweepManifest& out) {
    std::istringstream is{t};
    std::string err;
    return SweepManifest::load(is, out, err);
  };
  SweepManifest out;
  ASSERT_TRUE(load(with("12", "18446744073709551615"), out));
  EXPECT_EQ(out.duration_ns, std::optional<std::int64_t>{12});
  EXPECT_EQ(out.seed, std::optional<std::uint64_t>{18446744073709551615u});
  ASSERT_TRUE(load(with("-7", "0"), out));
  EXPECT_EQ(out.duration_ns, std::optional<std::int64_t>{-7});
  // Trailing bytes, signs and overflow are malformed, not read as a prefix
  // or wrapped: `12abc` must not match a 12 ns sweep on resume.
  for (const std::string duration :
       {"12abc", "+12", "12.0", "1e3", "0x10", "9223372036854775808"}) {
    EXPECT_FALSE(load(with(duration, "7"), out)) << duration;
  }
  for (const std::string seed :
       {"-1", "+1", "7abc", "18446744073709551616", "7.0"}) {
    EXPECT_FALSE(load(with("12", seed), out)) << seed;
  }
}

/// The points run_sweep finishes for the (replicate-1) three-point probe
/// sweep: point i prints the row "x,2x".
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

SweepLogEncoder probe_encoder() {
  return SweepLogEncoder{SweepManifest::from(probe(), three_point_sweep())};
}

/// A record of the three-point probe sweep's log.
std::string record_of(std::uint64_t heartbeat, std::uint64_t folded,
                      const std::vector<FinishedPoint>& points) {
  return probe_encoder().record(heartbeat, folded, ptrs(points));
}

std::string probe_head() { return probe_encoder().head(); }

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
  const SweepLogEncoder enc{m};
  const std::string bytes = enc.head() + enc.record(4, 4, ptrs(first)) +
                            enc.record(5, 6, ptrs(second));
  const SweepLog log = parse_ok(bytes);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.heartbeat, 5u);
  EXPECT_EQ(log.folded_tasks, 6u);
  std::ostringstream diag;
  EXPECT_TRUE(log.manifest.matches(m, "copy", diag)) << diag.str();
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
  EXPECT_NE(parse_error("not a log\n").find("bad magic"), std::string::npos);
}

TEST(SweepLog, RefusesPointsOutOfOrderOutsideTheGridOrCountersBackwards) {
  const std::string head = probe_head();
  EXPECT_NE(parse_error(head + record_of(1, 2, {probe_point(1)}) +
                        record_of(2, 3, {probe_point(0)}))
                .find("out of order"),
            std::string::npos);
  EXPECT_NE(parse_error(head + record_of(1, 1, {FinishedPoint{7, "", "", {}}}))
                .find("out of order or outside the grid"),
            std::string::npos);
  // The heartbeat must tick on every record, and a recorded point counts
  // its replicates as folded.
  EXPECT_NE(parse_error(head + record_of(2, 1, {}) + record_of(2, 1, {}))
                .find("inconsistent"),
            std::string::npos);
  EXPECT_NE(parse_error(head + record_of(1, 0, {probe_point(0)}))
                .find("inconsistent"),
            std::string::npos);
}

TEST(SweepLog, RecordsSplicedFromAnotherSweepFailTheirChecksum) {
  SweepOptions other = three_point_sweep();
  other.base.seed = 5;
  const SweepLogEncoder enc{SweepManifest::from(probe(), other)};
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

// --- pinned v3 bytes --------------------------------------------------------

// v3 logs of the three-point probe sweep, kept byte for byte as earlier
// builds wrote them: the head and the first record, which holds point 0.
// kPinnedRaw is the replicate-1 sweep at checkpoint_every 1, and
// kPinnedReplicated the replicate-2 sweep at checkpoint_every 2.
const std::string kPinnedRaw =
    "TFMCC-SWEEP-CKPT 3\n"
    "manifest 118 13523b739ce83570\n"
    "scenario 16:test_state_probe\n"
    "duration u\n"
    "seed u\n"
    "replicate 1\n"
    "stats 8:mean,cov\n"
    "shard 0 1\n"
    "params 0\n"
    "axes 1\n"
    "1:x 3 1:11:21:3\n"
    "record 60 59bb6e331be8a595\n"
    "heartbeat 1 folded 1 points 1\n"
    "point 0 1 8:x,sample 0:\n"
    "3:1,2\n";
const std::string kPinnedRawOutput =
    "x,x,sample\n"
    "1,1,2\n"
    "2,2,4\n"
    "3,3,6\n";
const std::string kPinnedReplicated =
    "TFMCC-SWEEP-CKPT 3\n"
    "manifest 118 0d85259f464bc9a1\n"
    "scenario 16:test_state_probe\n"
    "duration u\n"
    "seed u\n"
    "replicate 2\n"
    "stats 8:mean,cov\n"
    "shard 0 1\n"
    "params 0\n"
    "axes 1\n"
    "1:x 3 1:11:21:3\n"
    "record 100 6f23f7fd095a5a87\n"
    "heartbeat 1 folded 2 points 1\n"
    "point 0 1 8:x,sample 35:x_mean,x_cov,sample_mean,sample_cov\n"
    "7:1,0,2,0\n";
const std::string kPinnedReplicatedOutput =
    "x,x_mean,x_cov,sample_mean,sample_cov,n_rep\n"
    "1,1,0,2,0,2\n"
    "2,2,0,4,0,2\n"
    "3,3,0,6,0,2\n";
// The whole checkpoint of shard 1 of a 2-way sharded run of the raw sweep,
// written by a build that could shard: its manifest reads `shard 1 2`.
const std::string kShardedCheckpoint =
    "TFMCC-SWEEP-CKPT 3\n"
    "manifest 118 6e4e26cbefcfac72\n"
    "scenario 16:test_state_probe\n"
    "duration u\n"
    "seed u\n"
    "replicate 1\n"
    "stats 8:mean,cov\n"
    "shard 1 2\n"
    "params 0\n"
    "axes 1\n"
    "1:x 3 1:11:21:3\n"
    "record 60 33dd1b54015b5b57\n"
    "heartbeat 1 folded 1 points 1\n"
    "point 1 1 8:x,sample 0:\n"
    "3:2,4\n";

TEST(SweepLog, PinnedV3BytesParseWriteAndResumeIdentically) {
  struct Pinned {
    int replicate;
    const std::string& log;
    const std::string& output;
    FinishedPoint point;
  };
  const Pinned cases[] = {
      {1, kPinnedRaw, kPinnedRawOutput, probe_point(0)},
      {2, kPinnedReplicated, kPinnedReplicatedOutput,
       FinishedPoint{0, "x,sample", "x_mean,x_cov,sample_mean,sample_cov",
                     {"1,0,2,0"}}}};
  for (const Pinned& c : cases) {
    SCOPED_TRACE("replicate " + std::to_string(c.replicate));
    SweepOptions sweep = three_point_sweep();
    sweep.replicate = c.replicate;

    // The pinned bytes parse to the point they hold...
    const SweepLog log = parse_ok(c.log);
    EXPECT_FALSE(log.torn_tail);
    EXPECT_EQ(log.heartbeat, 1u);
    EXPECT_EQ(log.folded_tasks, static_cast<std::uint64_t>(c.replicate));
    std::ostringstream diag;
    EXPECT_TRUE(SweepManifest::from(probe(), sweep)
                    .matches(log.manifest, "pinned log", diag))
        << diag.str();
    ASSERT_EQ(log.points.size(), 1u);
    EXPECT_EQ(log.points[0].index, c.point.index);
    EXPECT_EQ(log.points[0].csv_header, c.point.csv_header);
    EXPECT_EQ(log.points[0].stats_header, c.point.stats_header);
    EXPECT_EQ(log.points[0].lines, c.point.lines);

    // ...this build writes the same bytes for the same progress...
    const std::string path = temp_path("pinned.bin");
    SweepOptions logged = sweep;
    logged.checkpoint_path = path;
    logged.checkpoint_every = c.replicate;
    EXPECT_EQ(sweep_output(logged), c.output);
    EXPECT_EQ(read_file(path).substr(0, c.log.size()), c.log);

    // ...and resuming from them reproduces the uninterrupted output.
    write_file(path, c.log);
    SweepOptions resumed = sweep;
    resumed.resume_path = path;
    EXPECT_EQ(sweep_output(resumed), c.output);
    std::remove(path.c_str());
  }
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

  // The v3 shard-partial magic and a checkpoint written by a shard, both
  // produced by builds that could shard a sweep, are not progress signals:
  // reading either must fail loudly rather than invent progress.
  const std::string part = temp_path("part_as_progress.bin");
  const std::string_view magic = "TFMCC-SWEEP-CKPT";
  write_file(part, "TFMCC-SWEEP-PART" + kPinnedRaw.substr(magic.size()));
  EXPECT_FALSE(read_checkpoint_progress(part, p, err));
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;

  const std::string sharded = temp_path("sharded_ckpt.bin");
  write_file(sharded, kShardedCheckpoint);
  EXPECT_FALSE(read_checkpoint_progress(sharded, p, err));
  EXPECT_NE(err.find("sharded sweep"), std::string::npos) << err;

  std::remove(garbage.c_str());
  std::remove(v2.c_str());
  std::remove(part.c_str());
  std::remove(sharded.c_str());
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

}  // namespace
}  // namespace tfmcc
