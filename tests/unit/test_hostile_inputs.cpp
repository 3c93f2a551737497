// Hostile-input harness for everything that parses untrusted bytes in the
// sweep engine: the checkpoint log reader (through parse_sweep_log,
// `--resume` and read_checkpoint_progress), the `--sweep` axis parser and
// `--set` coercion.
//
// Inputs are mutated from valid corpora by a seeded splitmix64 stream:
// single-byte flips, truncation at every prefix, and splices of one input's
// head onto another's tail.  The pass rule is the same everywhere: every
// input ends either in a clean `error:` diagnostic or in a valid result.
// A valid result from a log reader holds only points whose lines are
// exactly those an uninterrupted sweep produces (a torn final record is
// dropped, so a prefix is valid); a resume that succeeds emits the
// uninterrupted sweep's bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
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
  auto& out = opts.out();
  out.figure_header("probe", "hostile input");
  CsvWriter csv(out, {"x", "sample", "tag"});
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

/// A valid corpus: one sweep's uninterrupted output and two checkpoint logs
/// of it, one record per fold and one per two folds.
struct SweepCorpus {
  SweepOptions sweep;
  std::string output;
  std::vector<std::string> checkpoints;
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

  for (int every : {1, 2}) {
    SweepOptions logged = c.sweep;
    logged.checkpoint_path = temp_path(tag + ".ckpt");
    logged.checkpoint_every = every;
    std::ostringstream sink;
    EXPECT_EQ(run_sweep(probe, logged, sink, err), 0) << err.str();
    c.checkpoints.push_back(read_file(logged.checkpoint_path));
    std::remove(logged.checkpoint_path.c_str());
  }

  SweepLog log;
  std::string why;
  EXPECT_TRUE(parse_sweep_log(c.checkpoints.front(), log, why)) << why;
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
      const SweepManifest mine = SweepManifest::from(
          scenario("test_hostile_probe"), c.sweep);
      std::ostringstream sink;
      if (mine.matches(m, "", sink)) return &c;
    }
    return nullptr;
  }

  static std::vector<std::string> all_logs() {
    std::vector<std::string> logs;
    for (const SweepCorpus& c : *corpora_) {
      for (const auto& ckpt : c.checkpoints) logs.push_back(ckpt);
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
    ASSERT_TRUE(polled) << perr;
    EXPECT_EQ(progress.heartbeat, log.heartbeat);
    EXPECT_EQ(progress.folded_tasks, log.folded_tasks);
    EXPECT_LE(progress.folded_tasks,
              log.manifest.n_points() *
                  static_cast<std::uint64_t>(log.manifest.replicate));
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
    std::vector<std::string> corpus{c.checkpoints.front()};
    for (const SweepCorpus& other : *corpora_) {
      if (&other != &c) corpus.push_back(other.checkpoints.front());
    }
    corpus.push_back(c.checkpoints.back());
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
      const std::string body = text.substr(text.find('=') + 1);
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
          // An accepted range's bounds fit the type, so every point lies
          // between them once rounded (never a wrapped INT64_MIN).  A ':'
          // in the key alone leaves a list.
          if (body.find(':') == std::string::npos) continue;
          double lo = 0.0, hi = 0.0;
          ASSERT_TRUE(summary::parse_number(body.substr(0, body.find(':')),
                                            lo) &&
                      summary::parse_number(
                          body.substr(body.find(':') + 1,
                                      body.rfind(':') - body.find(':') - 1),
                          hi))
              << text;
          const std::int64_t a = std::llround(lo), b = std::llround(hi);
          EXPECT_GE(whole, std::min(a, b)) << text << " expanded to " << v;
          EXPECT_LE(whole, std::max(a, b)) << text << " expanded to " << v;
        }
      }
    }
  }
}

TEST(HostileArguments, SweepRangeBeyondTheIntegerTypeIsAnError) {
  const ParamSpec int_spec = param("n_max", 1, "int");
  const ParamSpec uint_spec = param("u", std::uint64_t{1}, "uint");
  const std::vector<std::pair<const ParamSpec*, std::string>> rejected{
      {&int_spec, "n_max=1:1e30:lin2"},
      {&int_spec, "n_max=-1e19:1:lin3"},
      {&int_spec, "n_max=1:9223372036854775807:lin2"},  // 2^63 as a double
      {&uint_spec, "u=-2:5:lin3"},
      {&uint_spec, "u=1:2e19:log2"}};
  for (const auto& [spec, text] : rejected) {
    SweepAxis axis;
    std::ostringstream err;
    EXPECT_FALSE(parse_sweep_axis(text, spec, axis, err)) << text;
    EXPECT_EQ(err.str().rfind("error: --sweep range '" + text + "'", 0), 0u)
        << err.str();
  }
  // The same bounds on a double parameter, and the widest ones each
  // integer type holds, expand.
  SweepAxis axis;
  std::ostringstream err;
  const ParamSpec double_spec = param("d", 1.0, "double");
  ASSERT_TRUE(parse_sweep_axis("d=1:1e30:lin2", &double_spec, axis, err));
  EXPECT_EQ(axis.values, (std::vector<std::string>{"1", "1e+30"}));
  ASSERT_TRUE(parse_sweep_axis("n_max=-9e18:9e18:lin2", &int_spec, axis, err));
  EXPECT_EQ(axis.values, (std::vector<std::string>{"-9000000000000000000",
                                                   "9000000000000000000"}));
  ASSERT_TRUE(parse_sweep_axis("u=0:1.8e19:lin2", &uint_spec, axis, err));
  EXPECT_EQ(axis.values,
            (std::vector<std::string>{"0", "18000000000000000000"}));
  EXPECT_EQ(err.str(), "");
}

TEST(HostileArguments, SweepRangeCountIsDigitsOnly) {
  // The linN/logN count is a whole unsigned number: a sign, a space or a
  // count past 2^64 is malformed, never wrapped into a small one.
  const ParamSpec int_spec = param("n_receivers", 1, "int");
  for (const std::string text :
       {"n_receivers=10:20:lin-18446744073709551614",
        "n_receivers=10:20:lin+2", "n_receivers=10:20:lin 2",
        "n_receivers=10:20:lin2 ", "n_receivers=10:20:log-1",
        "n_receivers=10:20:lin18446744073709551618",
        "n_receivers=10:20:lin0x2"}) {
    SweepAxis axis;
    std::ostringstream err;
    EXPECT_FALSE(parse_sweep_axis(text, &int_spec, axis, err)) << text;
    EXPECT_EQ(err.str().rfind("error: malformed --sweep range", 0), 0u)
        << err.str();
  }
  SweepAxis axis;
  std::ostringstream err;
  ASSERT_TRUE(
      parse_sweep_axis("n_receivers=10:20:lin02", &int_spec, axis, err));
  EXPECT_EQ(axis.values, (std::vector<std::string>{"10", "20"}));
}

TEST(HostileArguments, SweepCountOptionsAreWholeTokens) {
  // --jobs, --replicate and --checkpoint-every read their count by the
  // checkpoint log's whole-token rule: no leading space or sign, nothing
  // after the digits.
  const std::string out_path = ::testing::TempDir() + "tfmcc_hostile_counts";
  auto run = [&](const std::string& option, const std::string& value) {
    std::vector<std::string> args{"test_hostile_probe", "--sweep", "x=1,2",
                                  option, value, "--output", out_path};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    std::ostringstream err;
    const int rc =
        sweep_main(static_cast<int>(argv.size()), argv.data(), err);
    return std::pair{rc, err.str()};
  };
  for (const std::string option :
       {"--jobs", "--replicate", "--checkpoint-every"}) {
    for (const std::string value :
         {" +2", "+2", "\t2", " 2", "2 ", "2x", "", "-2", "0x2",
          "99999999999999999999"}) {
      const auto [rc, err] = run(option, value);
      EXPECT_EQ(rc, 2) << option << " '" << value << "'";
      EXPECT_EQ(err.rfind("error: " + option + " expects an integer", 0), 0u)
          << err;
    }
    const auto [rc, err] = run(option, "2");
    EXPECT_EQ(rc, 0) << option << ": " << err;
  }
  std::remove(out_path.c_str());
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
