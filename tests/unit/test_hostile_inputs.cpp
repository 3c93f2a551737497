// Hostile-input harness for everything that parses untrusted bytes in the
// sweep engine: the checkpoint/partial log reader (through parse_sweep_log,
// `--resume` and read_checkpoint_progress), `tfmcc_sim merge`, the
// `--sweep` axis parser and `--set` coercion.
//
// Inputs are mutated from valid corpora by a seeded splitmix64 stream:
// single-byte flips, truncation at every prefix, and splices of one input's
// head onto another's tail.  The pass rule is the same everywhere: every
// input ends either in a clean `error:` diagnostic or in a valid result.
// A valid result from a log reader holds only points whose lines are
// exactly those an uninterrupted sweep produces (a torn final record is
// dropped, so a prefix is valid); a resume or merge that succeeds emits the
// uninterrupted sweep's bytes.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "sim/sweep_state.hpp"
#include "util/csv.hpp"

namespace tfmcc {
namespace {

// Seed-sensitive probe: one row whose `sample` depends on the run's seed,
// plus a label column, so replicated points carry real statistics.
TFMCC_SCENARIO(test_hostile_probe, "hostile-input probe",
               tfmcc::param("x", 1, "integer factor", 0)) {
  const int x = opts.param_or("x", 1);
  const std::uint64_t seed = opts.seed.value_or(0);
  auto& os = opts.out();
  os << "# hostile probe\n";
  CsvWriter csv(os, {"x", "sample", "tag"});
  csv.row(x, static_cast<double>(x) * static_cast<double>(seed % 7 + 1),
          x % 2 == 0 ? "even" : "odd");
  return 0;
}

// Every declared parameter type, for the --set coercion target.
TFMCC_SCENARIO(test_hostile_params, "hostile-input parameter set",
               tfmcc::param("n", 1, "int with a minimum", 1),
               tfmcc::param("u", std::uint64_t{2}, "uint"),
               tfmcc::param("d", 0.5, "double with a minimum", 0),
               tfmcc::param("b", false, "bool"),
               tfmcc::param("s", "text", "string")) {
  return 0;
}

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }
};

/// Byte flips, every truncation, and splices (head of one input, tail of
/// another) of `corpus`.  `alphabet`, when non-empty, is what a flipped
/// byte becomes; otherwise it is xor'd with a random nonzero byte.
std::vector<std::string> mutations(const std::vector<std::string>& corpus,
                                   std::uint64_t seed, std::size_t flips,
                                   std::size_t splices,
                                   const std::string& alphabet = {}) {
  SplitMix64 rng{seed};
  std::vector<std::string> out;
  for (const std::string& text : corpus) {
    for (std::size_t len = 0; len < text.size(); ++len) {
      out.push_back(text.substr(0, len));
    }
    for (std::size_t i = 0; i < flips && !text.empty(); ++i) {
      std::string m = text;
      const std::size_t at = rng.below(m.size());
      if (alphabet.empty()) {
        m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + rng.below(255)));
      } else {
        m[at] = alphabet[rng.below(alphabet.size())];
      }
      out.push_back(std::move(m));
    }
  }
  for (std::size_t i = 0; i < splices; ++i) {
    const std::string& a = corpus[rng.below(corpus.size())];
    const std::string& b = corpus[rng.below(corpus.size())];
    out.push_back(a.substr(0, rng.below(a.size() + 1)) +
                  b.substr(rng.below(b.size() + 1)));
  }
  return out;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tfmcc_hostile_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  os << bytes;
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

const Scenario& scenario(const char* name) {
  const Scenario* s = ScenarioRegistry::instance().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

/// A valid corpus: one sweep's uninterrupted output, its checkpoint log
/// (one record per fold) and its two shard partials.
struct SweepCorpus {
  SweepOptions sweep;
  std::string output;
  std::string checkpoint;
  std::vector<std::string> partials;
  std::map<std::size_t, FinishedPoint> points;  // by grid index
};

SweepCorpus make_corpus(std::uint64_t seed, int replicate,
                        const std::string& tag) {
  SweepCorpus c;
  c.sweep.axes = {{"x", {"1", "2", "3", "4", "5"}}};
  c.sweep.replicate = replicate;
  c.sweep.base.seed = seed;
  const Scenario& probe = scenario("test_hostile_probe");
  std::ostringstream plain, err;
  EXPECT_EQ(run_sweep(probe, c.sweep, plain, err), 0) << err.str();
  c.output = plain.str();

  SweepOptions logged = c.sweep;
  logged.checkpoint_path = temp_path(tag + ".ckpt");
  logged.checkpoint_every = 1;
  std::ostringstream sink;
  EXPECT_EQ(run_sweep(probe, logged, sink, err), 0) << err.str();
  c.checkpoint = read_file(logged.checkpoint_path);
  std::remove(logged.checkpoint_path.c_str());

  for (int shard = 0; shard < 2; ++shard) {
    SweepOptions sharded = c.sweep;
    sharded.shard_index = shard;
    sharded.shard_count = 2;
    std::ostringstream part;
    EXPECT_EQ(run_sweep(probe, sharded, part, err), 0) << err.str();
    c.partials.push_back(part.str());
  }

  SweepLog log;
  std::string why;
  EXPECT_TRUE(parse_sweep_log(c.checkpoint, log, why)) << why;
  EXPECT_EQ(log.points.size(), 5u);
  for (const FinishedPoint& p : log.points) c.points[p.index] = p;
  return c;
}

class HostileInputs : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpora_ = new std::vector<SweepCorpus>{
        make_corpus(3, 2, "rep3"), make_corpus(11, 2, "rep11"),
        make_corpus(3, 1, "raw")};
  }
  static void TearDownTestSuite() {
    delete corpora_;
    corpora_ = nullptr;
  }

  /// The corpus whose sweep the parsed manifest describes, or null.
  static const SweepCorpus* owner(const SweepManifest& m) {
    for (const SweepCorpus& c : *corpora_) {
      SweepManifest mine = SweepManifest::from(
          scenario("test_hostile_probe"), c.sweep);
      mine.shard_index = m.shard_index;
      mine.shard_count = m.shard_count;
      std::ostringstream sink;
      if (mine.matches(m, false, "", sink)) return &c;
    }
    return nullptr;
  }

  static std::vector<std::string> all_logs() {
    std::vector<std::string> logs;
    for (const SweepCorpus& c : *corpora_) {
      logs.push_back(c.checkpoint);
      for (const auto& p : c.partials) logs.push_back(p);
    }
    return logs;
  }

  static std::vector<SweepCorpus>* corpora_;
};

std::vector<SweepCorpus>* HostileInputs::corpora_ = nullptr;

bool same_point(const FinishedPoint& a, const FinishedPoint& b) {
  return a.index == b.index && a.csv_header == b.csv_header &&
         a.stats_header == b.stats_header && a.lines == b.lines;
}

TEST_F(HostileInputs, LogReaderYieldsAnErrorOrTrueFinishedPoints) {
  std::size_t accepted = 0, refused = 0;
  const std::string path = temp_path("mutated.log");
  for (const std::string& bytes : mutations(all_logs(), 0x5eed, 400, 600)) {
    SweepLog log;
    std::string why;
    const bool ok = parse_sweep_log(bytes, log, why);

    // The file-based readers must agree with the in-memory parse.
    write_file(path, bytes);
    SweepLog from_file;
    std::ostringstream file_err;
    ASSERT_EQ(read_sweep_log(path, from_file, file_err), ok) << why;
    CheckpointProgress progress;
    std::string perr;
    const bool polled = read_checkpoint_progress(path, progress, perr);

    if (!ok) {
      ++refused;
      EXPECT_FALSE(why.empty());
      EXPECT_EQ(file_err.str().rfind("error: ", 0), 0u) << file_err.str();
      EXPECT_FALSE(polled);
      EXPECT_FALSE(perr.empty());
      continue;
    }
    ++accepted;
    const SweepCorpus* c = owner(log.manifest);
    ASSERT_NE(c, nullptr) << "accepted a manifest no sweep wrote";
    for (const FinishedPoint& p : log.points) {
      const auto want = c->points.find(p.index);
      ASSERT_NE(want, c->points.end());
      EXPECT_TRUE(same_point(p, want->second))
          << "accepted altered lines for point " << p.index;
    }
    EXPECT_EQ(polled, log.kind == SweepLogKind::kCheckpoint) << perr;
    if (polled) {
      EXPECT_EQ(progress.heartbeat, log.heartbeat);
      EXPECT_EQ(progress.folded_tasks, log.folded_tasks);
      std::uint64_t owned_tasks = 0;
      for (std::size_t p = 0; p < log.manifest.n_points(); ++p) {
        if (shard_owns_point(log.manifest, p)) {
          owned_tasks += static_cast<std::uint64_t>(log.manifest.replicate);
        }
      }
      EXPECT_LE(progress.folded_tasks, owned_tasks);
    }
  }
  std::remove(path.c_str());
  // Both outcomes are exercised: every prefix past the head parses.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(refused, 1000u);
}

TEST_F(HostileInputs, ResumeEndsInAnErrorOrTheUninterruptedOutput) {
  const std::string path = temp_path("resume.log");
  const Scenario& probe = scenario("test_hostile_probe");
  for (const SweepCorpus& c : *corpora_) {
    std::vector<std::string> corpus{c.checkpoint};
    for (const SweepCorpus& other : *corpora_) {
      if (&other != &c) corpus.push_back(other.checkpoint);
    }
    corpus.push_back(c.partials.front());
    for (const std::string& bytes : mutations(corpus, 0xc0ffee, 150, 150)) {
      write_file(path, bytes);
      SweepOptions resumed = c.sweep;
      resumed.resume_path = path;
      std::ostringstream out, err;
      const int rc = run_sweep(probe, resumed, out, err);
      if (rc == 0) {
        EXPECT_EQ(out.str(), c.output);
      } else {
        EXPECT_EQ(rc, 2);
        EXPECT_EQ(err.str().rfind("error: ", 0), 0u) << err.str();
        EXPECT_TRUE(out.str().empty());
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(HostileInputs, MergeEndsInAnErrorOrTheUnshardedOutput) {
  const std::vector<std::string> paths{temp_path("part0"),
                                       temp_path("part1")};
  const std::string merged = temp_path("merged.csv");
  for (const SweepCorpus& c : *corpora_) {
    for (std::size_t victim = 0; victim < 2; ++victim) {
      std::vector<std::string> corpus{c.partials[victim],
                                      c.partials[1 - victim], c.checkpoint};
      for (const SweepCorpus& other : *corpora_) {
        if (&other != &c) corpus.push_back(other.partials[victim]);
      }
      write_file(paths[1 - victim], c.partials[1 - victim]);
      for (const std::string& bytes : mutations(corpus, 0xbad + victim, 150,
                                                150)) {
        write_file(paths[victim], bytes);
        std::remove(merged.c_str());
        std::vector<std::string> args{"--output", merged, paths[0], paths[1]};
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        std::ostringstream err;
        const int rc =
            merge_main(static_cast<int>(argv.size()), argv.data(), err);
        if (rc == 0) {
          EXPECT_EQ(read_file(merged), c.output);
        } else {
          EXPECT_EQ(rc, 2);
          EXPECT_EQ(err.str().rfind("error: ", 0), 0u) << err.str();
        }
      }
    }
  }
  for (const auto& p : paths) std::remove(p.c_str());
  std::remove(merged.c_str());
}

TEST(HostileArguments, SweepAxisParsesToAnErrorOrAUsableAxis) {
  const ParamSpec int_spec = param("n", 1, "int");
  const ParamSpec double_spec = param("d", 1.0, "double");
  const std::vector<std::string> corpus{
      "n=1,2,3", "n=1:100:log5", "n=2:2000:log12", "d=0.5:2.5:lin3",
      "d=1e-3:1e3:log7", "n=10:1:lin4"};
  for (const ParamSpec* spec : {&int_spec, &double_spec,
                                static_cast<const ParamSpec*>(nullptr)}) {
    for (const std::string& text :
         mutations(corpus, 0xa715, 300, 300, "0123456789:,=.-+eEilnogx ")) {
      SweepAxis axis;
      std::ostringstream err;
      if (!parse_sweep_axis(text, spec, axis, err)) {
        EXPECT_EQ(err.str().rfind("error: ", 0), 0u) << text;
        continue;
      }
      EXPECT_EQ(axis.key, text.substr(0, text.find('='))) << text;
      ASSERT_FALSE(axis.values.empty()) << text;
      const bool range = text.find(':') != std::string::npos;
      for (const std::string& v : axis.values) {
        ASSERT_FALSE(v.empty()) << text;
        if (!range) continue;
        double number = 0.0;
        EXPECT_TRUE(summary::parse_number(v, number))
            << text << " expanded to '" << v << "'";
        if (spec == &int_spec) {
          std::int64_t whole = 0;
          const auto [end, ec] =
              std::from_chars(v.data(), v.data() + v.size(), whole);
          EXPECT_TRUE(ec == std::errc{} && end == v.data() + v.size())
              << text << " expanded to '" << v << "'";
        }
      }
    }
  }
}

TEST(HostileArguments, SetCoercionEndsInAnErrorOrAValueThatReadsBack) {
  const Scenario& s = scenario("test_hostile_params");
  const std::vector<std::string> corpus{"n=42",  "n=1000.0", "u=2e6",
                                        "d=0.25", "b=true",  "s=hello",
                                        "b=off",  "d=-0"};
  for (const std::string& text :
       mutations(corpus, 0x5e7, 300, 300, "0123456789=.-+eEnudbs truefalsoix")) {
    std::string arg = text;
    std::vector<char*> argv{const_cast<char*>("--set"), arg.data()};
    ScenarioOptions opts;
    std::ostringstream err;
    if (!parse_scenario_options(2, argv.data(), opts, err) ||
        !validate_scenario_params(s, opts, err)) {
      EXPECT_EQ(err.str().rfind("error: ", 0), 0u) << text;
      continue;
    }
    // Accepted: the typed read of the declared type must see the value
    // itself (two different fallbacks agree) and honour the minimum.
    opts.bind_specs(&s.params);
    for (const auto& [key, value] : opts.params()) {
      const ParamSpec* spec = s.find_param(key);
      ASSERT_NE(spec, nullptr) << text;
      switch (spec->type) {
        case ParamType::kInt64: {
          const auto v = opts.param_or<std::int64_t>(key, 7);
          EXPECT_EQ(v, opts.param_or<std::int64_t>(key, 8)) << text;
          if (spec->min) {
            EXPECT_GE(static_cast<double>(v), *spec->min) << text;
          }
          break;
        }
        case ParamType::kUint64: {
          const auto v = opts.param_or<std::uint64_t>(key, 7);
          EXPECT_EQ(v, opts.param_or<std::uint64_t>(key, 8)) << text;
          break;
        }
        case ParamType::kDouble: {
          const double v = opts.param_or<double>(key, 7.0);
          EXPECT_EQ(v, opts.param_or<double>(key, 8.0)) << text;
          EXPECT_TRUE(std::isfinite(v)) << text;
          if (spec->min) {
            EXPECT_GE(v, *spec->min) << text;
          }
          break;
        }
        case ParamType::kBool:
          EXPECT_EQ(opts.param_or<bool>(key, false),
                    opts.param_or<bool>(key, true))
              << text;
          break;
        case ParamType::kString:
          EXPECT_EQ(opts.param_or<std::string>(key, "a"), value) << text;
          break;
      }
    }
  }
}

}  // namespace
}  // namespace tfmcc
