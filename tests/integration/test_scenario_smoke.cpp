// Full-matrix scenario smoke harness: every scenario registered in the
// bench object library runs at a sharply reduced duration with small
// receiver/trial counts (applied only where the scenario declares the
// corresponding parameter), through both output renderers.  It must exit 0
// and capture a CSV table with rows, and the captured header and rows,
// joined with ',', must be the CSV lines of its text rendering, in order.
// One gtest per scenario is registered dynamically from the registry, and
// tests/CMakeLists.txt emits a matching `smoke`-labelled ctest entry per
// scenario so the matrix parallelises.
//
// The ScenarioHarness suite adds cross-cutting checks: the time-warp
// acceptance (a 20 s run of fig11 still fires every scripted join/leave)
// and determinism of parameterized runs at the whole-scenario level.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/csv.hpp"

namespace tfmcc {
namespace {

/// Reduced-size overrides applied to every scenario that declares the key;
/// scenarios without the key keep their (already reduced-duration) shape.
constexpr std::pair<const char*, const char*> kSmokeOverrides[] = {
    {"n_receivers", "8"}, {"n_tcp", "2"},  {"n_tails", "4"},
    {"trials", "2"},      {"n_max", "64"}, {"p_points", "8"},
    {"ewma_steps", "10"}, {"churn_events", "64"}, {"n_sessions", "2"},
    {"max_receivers", "4"},
};

ScenarioOptions smoke_options(const Scenario& s) {
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(10);
  for (const auto& [key, value] : kSmokeOverrides) {
    if (s.find_param(key) != nullptr) opts.set_param(key, value);
  }
  return opts;
}

/// Runs a scenario via the registry through the text renderer; returns
/// (exit code, rendered text).  Diagnostics go to `err`.
std::pair<int, std::string> run_text(std::string_view name,
                                     ScenarioOptions opts, std::ostream& err) {
  std::ostringstream os;
  ScenarioOutput text{os};
  opts.set_output(text);
  const int rc = ScenarioRegistry::instance().run(name, opts, err);
  return {rc, os.str()};
}

class ScenarioSmokeCase : public testing::Test {
 public:
  explicit ScenarioSmokeCase(std::string name) : name_{std::move(name)} {}

  void TestBody() override {
    const Scenario* s = ScenarioRegistry::instance().find(name_);
    ASSERT_NE(s, nullptr);
    std::ostringstream err;
    ScenarioOptions opts = smoke_options(*s);
    ScenarioOutput capture;
    opts.set_output(capture);
    ASSERT_EQ(ScenarioRegistry::instance().run(name_, opts, err), 0)
        << "scenario failed: " << err.str();
    const CsvTable table = capture.take_table();
    EXPECT_FALSE(table.rows.empty()) << "no CSV rows captured";

    const auto [rc, text] = run_text(name_, smoke_options(*s), err);
    ASSERT_EQ(rc, 0) << "scenario failed: " << err.str();
    EXPECT_EQ(capture.tellp(), text.size());
    std::vector<std::string> csv_lines{summary::join_csv(table.header)};
    for (const auto& row : table.rows) {
      csv_lines.push_back(summary::join_csv(row));
    }
    // The text holds those lines in order; the bytes it holds beyond them
    // are the commentary the capture counted but dropped.
    std::istringstream is{text};
    std::string line;
    std::size_t matched = 0;
    while (std::getline(is, line)) {
      if (matched < csv_lines.size() && line == csv_lines[matched]) ++matched;
    }
    ASSERT_EQ(matched, csv_lines.size())
        << "captured line '" << csv_lines[matched]
        << "' is not the text's next CSV line:\n"
        << text.substr(0, 2000);
  }

 private:
  std::string name_;
};

TEST(ScenarioHarness, RegistryIsPopulated) {
  // 20 figures, 4 ablations, 1 comparison, 4 apps, 2 churn, 2 multi-session
  // and 1 scale scenario.
  EXPECT_GE(ScenarioRegistry::instance().size(), 34u);
}

TEST(ScenarioHarness, Fig11WarpFiresAllScriptedEvents) {
  // Acceptance: `tfmcc_sim fig11_loss_responsiveness --duration 20` still
  // fires all scripted joins and leaves, time-warped into the horizon.
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(20);
  std::ostringstream err;
  const auto [rc, out] = run_text("fig11_loss_responsiveness", opts, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.find("fired 6/6 scripted events"), std::string::npos)
      << "schedule note missing or incomplete:\n"
      << out.substr(0, 2000);
}

TEST(ScenarioHarness, ParameterizedRunsAreDeterministic) {
  // Same seed + same --set overrides => byte-identical scenario output.
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(5);
  opts.seed = 42;
  opts.set_param("n_tcp", "3");
  opts.set_param("n_receivers", "2");
  std::ostringstream err;
  const auto [rc_a, out_a] =
      run_text("fig09_single_bottleneck", opts, err);
  const auto [rc_b, out_b] =
      run_text("fig09_single_bottleneck", opts, err);
  ASSERT_EQ(rc_a, 0) << err.str();
  ASSERT_EQ(rc_b, 0) << err.str();
  EXPECT_EQ(out_a, out_b);

  ScenarioOptions other = opts;
  other.seed = 43;
  const auto [rc_c, out_c] =
      run_text("fig09_single_bottleneck", other, err);
  ASSERT_EQ(rc_c, 0) << err.str();
  EXPECT_NE(out_a, out_c);
}

TEST(ScenarioHarness, SweepAggregateIsByteIdenticalAcrossJobs) {
  // Acceptance: a smoke-sized fig07 grid aggregates to byte-identical CSV
  // whether the points run serially or on four workers, with rows in grid
  // order (axes last-fastest) regardless of completion order.
  const Scenario* s = ScenarioRegistry::instance().find("fig07_scaling");
  ASSERT_NE(s, nullptr);
  SweepOptions sweep;
  std::ostringstream parse_err;
  SweepAxis n_axis, t_axis;
  ASSERT_TRUE(parse_sweep_axis("n_receivers=2:200:log3",
                               s->find_param("n_receivers"), n_axis,
                               parse_err))
      << parse_err.str();
  ASSERT_TRUE(parse_sweep_axis("trials=2,3", s->find_param("trials"), t_axis,
                               parse_err))
      << parse_err.str();
  sweep.axes = {n_axis, t_axis};
  sweep.base.set_param("n_max", "1000");

  auto run_with_jobs = [&](int jobs) {
    sweep.jobs = jobs;
    std::ostringstream out, err;
    EXPECT_EQ(run_sweep(*s, sweep, out, err), 0) << err.str();
    return out.str();
  };
  const std::string serial = run_with_jobs(1);
  const std::string parallel = run_with_jobs(4);
  EXPECT_EQ(serial, parallel);

  // 3 receiver counts x 2 trial counts, one CSV row per point, one header.
  std::istringstream is{serial};
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u) << serial;
  EXPECT_EQ(lines[0].rfind("n_receivers,trials,", 0), 0u) << lines[0];
  // Grid order: the last axis (trials) varies fastest.
  EXPECT_EQ(lines[1].rfind("2,2,", 0), 0u) << serial;
  EXPECT_EQ(lines[2].rfind("2,3,", 0), 0u) << serial;
  EXPECT_EQ(lines[3].rfind("20,2,", 0), 0u) << serial;
  EXPECT_EQ(lines[6].rfind("200,3,", 0), 0u) << serial;
}

TEST(ScenarioHarness, ReplicatedSweepAggregateIsDeterministic) {
  // Acceptance: a replicated fig07 aggregate (one mean/cov row per grid
  // point plus n_rep) is byte-identical across --jobs 1 vs --jobs 4 and
  // across repeated invocations.
  const Scenario* s = ScenarioRegistry::instance().find("fig07_scaling");
  ASSERT_NE(s, nullptr);
  SweepOptions sweep;
  std::ostringstream parse_err;
  SweepAxis n_axis;
  ASSERT_TRUE(parse_sweep_axis("n_receivers=2:200:log3",
                               s->find_param("n_receivers"), n_axis,
                               parse_err))
      << parse_err.str();
  sweep.axes = {n_axis};
  sweep.base.set_param("trials", "2");
  sweep.base.set_param("n_max", "1000");
  sweep.replicate = 5;

  auto run_with_jobs = [&](int jobs) {
    sweep.jobs = jobs;
    std::ostringstream out, err;
    EXPECT_EQ(run_sweep(*s, sweep, out, err), 0) << err.str();
    return out.str();
  };
  const std::string serial = run_with_jobs(1);
  EXPECT_EQ(serial, run_with_jobs(4));
  EXPECT_EQ(serial, run_with_jobs(4));  // repeated invocation

  // One header plus one aggregate row per receiver count, each carrying
  // the replicate count in the trailing n_rep column.
  std::istringstream is{serial};
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << serial;
  EXPECT_EQ(lines[0].rfind("n_receivers,n_mean,n_cov,", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("constant_kbps_mean,constant_kbps_cov"),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[0].substr(lines[0].size() - 6), ",n_rep") << lines[0];
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].substr(lines[i].size() - 2), ",5") << lines[i];
  }
  // Monte-Carlo columns really vary across the derived seeds: the CoV of
  // constant_kbps (column 5) is nonzero at every point.
  const auto cells = summary::split_csv(lines[1]);
  ASSERT_GT(cells.size(), 4u);
  EXPECT_GT(std::stod(cells[4]), 0.0) << lines[1];
}

TEST(ScenarioHarness, UnknownOverrideKeyIsRejected) {
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(1);
  opts.set_param("no_such_knob", "1");
  std::ostringstream err;
  const auto [rc, out] = run_text("fig09_single_bottleneck", opts, err);
  (void)out;
  EXPECT_EQ(rc, -1);
  EXPECT_NE(err.str().find("unknown parameter 'no_such_knob'"),
            std::string::npos);
}

}  // namespace
}  // namespace tfmcc

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (const auto& name : tfmcc::ScenarioRegistry::instance().names()) {
    testing::RegisterTest(
        "ScenarioSmoke", name.c_str(), nullptr, nullptr, __FILE__, __LINE__,
        [name]() -> testing::Test* {
          return new tfmcc::ScenarioSmokeCase(name);
        });
  }
  const int rc = RUN_ALL_TESTS();
  if (rc == 0 &&
      testing::UnitTest::GetInstance()->test_to_run_count() == 0) {
    // A filter that matches nothing (e.g. a renamed scenario) must not
    // silently pass its ctest entry.
    std::fprintf(stderr, "error: no test matched the filter\n");
    return 1;
  }
  return rc;
}
