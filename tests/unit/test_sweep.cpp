// Unit tests for the parameter-sweep driver (sim/sweep.hpp): grid-spec
// parsing (lists, linear/log ranges, malformed specs), cartesian expansion
// order, and run_sweep itself — deterministic grid-order aggregation that
// is byte-identical across --jobs levels even when completion order is
// deliberately skewed, plus the validation and failure paths.

#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/csv.hpp"

namespace tfmcc {
namespace {

// Synthetic scenario for exercising run_sweep without the bench library:
// emits one CSV row derived from its parameters, wrapped in the usual
// figure-header/NOTE commentary, and can stall (to skew completion order
// across worker threads) or fail on demand.
TFMCC_SCENARIO(test_sweep_probe, "synthetic sweep probe",
               tfmcc::param("x", 1, "integer factor", 0),
               tfmcc::param("y", 1.0, "double factor"),
               tfmcc::param("delay_ms", 0, "stall before emitting", 0),
               tfmcc::param("fail", false, "exit nonzero"),
               tfmcc::param("throw_msg", "", "throw with this message"),
               tfmcc::param("alt_header", false, "emit a different header"),
               tfmcc::param("ragged", false,
                            "emit a data row with one cell too many"),
               tfmcc::param("interrupt_once_file", "",
                            "request a sweep interrupt once, creating this "
                            "marker file")) {
  const int x = opts.param_or("x", 1);
  const double y = opts.param_or("y", 1.0);
  const int delay_ms = opts.param_or("delay_ms", 0);
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  const std::string interrupt_marker = opts.param_or("interrupt_once_file", "");
  if (!interrupt_marker.empty()) {
    // One-shot: interrupt the first sweep that runs this task, so the
    // resumed sweep (same manifest, marker now present) completes.
    if (!std::ifstream{interrupt_marker}.good()) {
      std::ofstream{interrupt_marker} << "interrupted\n";
      request_sweep_interrupt();
    }
  }
  auto& os = opts.out();
  os << "# synthetic probe\n";
  if (opts.param_or("fail", false)) {
    os << "NOTE: failing as requested\n";
    return 3;
  }
  const std::string throw_msg = opts.param_or("throw_msg", "");
  if (!throw_msg.empty()) throw std::runtime_error(throw_msg);
  CsvWriter csv(os, {opts.param_or("alt_header", false) ? "other" : "x", "y",
                     "product"});
  if (opts.param_or("ragged", false)) {
    os << "1,2,3,4\n";
  } else {
    csv.row(x, y, static_cast<double>(x) * y);
  }
  os << "NOTE: product emitted\n";
  return 0;
}

// Seed-sensitive probe for the replication layer: one row whose `sample`
// column is a deterministic function of the effective seed, so replicates
// on derived seeds produce dispersion and the aggregate is checkable by
// hand.
TFMCC_SCENARIO(test_replicate_probe, "seed-sensitive replication probe",
               tfmcc::param("x", 1, "integer factor", 0)) {
  const int x = opts.param_or("x", 1);
  auto& os = opts.out();
  CsvWriter csv(os, {"x", "sample"});
  csv.row(x, opts.seed_or(100) % 1000);
  return 0;
}

// Per-flow probe: two rows per run with a label column, mirroring the
// fig09-style traces whose label columns must group the replicated
// aggregate instead of pooling all flows under the first label.
TFMCC_SCENARIO(test_grouped_probe, "per-flow grouped replication probe",
               tfmcc::param("x", 1, "integer factor", 0)) {
  const int x = opts.param_or("x", 1);
  CsvWriter csv(opts.out(), {"flow", "value"});
  csv.row("alpha",
          x * static_cast<long long>(opts.seed_or(100) % 100));
  csv.row("beta", 1000 + x);
  return 0;
}

const Scenario& probe() {
  const Scenario* s = ScenarioRegistry::instance().find("test_sweep_probe");
  EXPECT_NE(s, nullptr);
  return *s;
}

const Scenario& replicate_probe() {
  const Scenario* s =
      ScenarioRegistry::instance().find("test_replicate_probe");
  EXPECT_NE(s, nullptr);
  return *s;
}

SweepAxis parse_ok(std::string_view text, const ParamSpec* spec = nullptr) {
  SweepAxis axis;
  std::ostringstream err;
  EXPECT_TRUE(parse_sweep_axis(text, spec, axis, err)) << err.str();
  return axis;
}

std::string parse_fail(std::string_view text,
                       const ParamSpec* spec = nullptr) {
  SweepAxis axis;
  std::ostringstream err;
  EXPECT_FALSE(parse_sweep_axis(text, spec, axis, err)) << "for: " << text;
  return err.str();
}

TEST(SweepAxisParse, ExplicitListPassesValuesThroughVerbatim) {
  const SweepAxis axis = parse_ok("n_receivers=1,10,2e2");
  EXPECT_EQ(axis.key, "n_receivers");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"1", "10", "2e2"}));
}

TEST(SweepAxisParse, LinearRange) {
  const SweepAxis axis = parse_ok("loss=0:1:lin5");
  EXPECT_EQ(axis.key, "loss");
  EXPECT_EQ(axis.values,
            (std::vector<std::string>{"0", "0.25", "0.5", "0.75", "1"}));
}

TEST(SweepAxisParse, LogRangeLandsExactlyOnBothBounds) {
  const SweepAxis axis = parse_ok("rate=1:1000:log4");
  EXPECT_EQ(axis.values,
            (std::vector<std::string>{"1", "10", "100", "1000"}));
}

TEST(SweepAxisParse, IntegerSpecRoundsRangePoints) {
  const ParamSpec spec = param("n", 1, "receivers", 1);
  const SweepAxis axis = parse_ok("n=2:2000:log6", &spec);
  EXPECT_EQ(axis.values, (std::vector<std::string>{"2", "8", "32", "126",
                                                   "502", "2000"}));
}

TEST(SweepAxisParse, IntegerRoundingCollapsesAdjacentDuplicates) {
  const ParamSpec spec = param("n", 1, "receivers", 1);
  const SweepAxis axis = parse_ok("n=1:4:log8", &spec);
  // Unrounded: 1, 1.22, 1.49, 1.81, 2.21, 2.69, 3.28, 4.
  EXPECT_EQ(axis.values, (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST(SweepAxisParse, DoubleSpecKeepsFractionalRangePoints) {
  const ParamSpec spec = param("loss", 0.1, "loss rate", 0.0);
  const SweepAxis axis = parse_ok("loss=0.01:0.04:lin4", &spec);
  EXPECT_EQ(axis.values,
            (std::vector<std::string>{"0.01", "0.02", "0.03", "0.04"}));
}

TEST(SweepAxisParse, RejectsMalformedSpecs) {
  EXPECT_NE(parse_fail("no_equals").find("--sweep expects"),
            std::string::npos);
  EXPECT_NE(parse_fail("=1,2").find("--sweep expects"), std::string::npos);
  EXPECT_NE(parse_fail("k=").find("--sweep expects"), std::string::npos);
  EXPECT_NE(parse_fail("k=1,,2").find("empty value"), std::string::npos);
  EXPECT_NE(parse_fail("k=1:10").find("malformed"), std::string::npos);
  EXPECT_NE(parse_fail("k=1:10:geo4").find("malformed"), std::string::npos);
  EXPECT_NE(parse_fail("k=1:10:lin").find("malformed"), std::string::npos);
  EXPECT_NE(parse_fail("k=1:10:log4x").find("malformed"), std::string::npos);
  EXPECT_NE(parse_fail("k=a:10:lin4").find("malformed"), std::string::npos);
  EXPECT_NE(parse_fail("k=1:b:lin4").find("malformed"), std::string::npos);
  EXPECT_NE(parse_fail("k=1:10:lin1").find("between 2"), std::string::npos);
  EXPECT_NE(parse_fail("k=0:10:log4").find("positive bounds"),
            std::string::npos);
  EXPECT_NE(parse_fail("k=-1:10:log4").find("positive bounds"),
            std::string::npos);
}

TEST(SweepGrid, ExpandsCartesianProductLastAxisFastest) {
  const std::vector<SweepAxis> axes{{"a", {"1", "2"}}, {"b", {"x", "y"}}};
  const auto grid = expand_grid(axes);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0], (std::vector<std::string>{"1", "x"}));
  EXPECT_EQ(grid[1], (std::vector<std::string>{"1", "y"}));
  EXPECT_EQ(grid[2], (std::vector<std::string>{"2", "x"}));
  EXPECT_EQ(grid[3], (std::vector<std::string>{"2", "y"}));
}

TEST(SweepGrid, SingleAxisGridIsTheAxis) {
  const auto grid = expand_grid({{"a", {"1", "2", "3"}}});
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid[2], (std::vector<std::string>{"3"}));
}

std::string run_probe_sweep(SweepOptions sweep, int expected_rc = 0,
                            std::string* err_out = nullptr) {
  std::ostringstream out, err;
  const int rc = run_sweep(probe(), sweep, out, err);
  EXPECT_EQ(rc, expected_rc) << err.str();
  if (err_out != nullptr) *err_out = err.str();
  return out.str();
}

TEST(RunSweep, AggregatesRowsInGridOrderWithKeysPrepended) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"2", "3"}}, {"y", {"0.5", "4"}}};
  const std::string out = run_probe_sweep(sweep);
  EXPECT_EQ(out,
            "x,y,x,y,product\n"
            "2,0.5,2,0.5,1\n"
            "2,4,2,4,8\n"
            "3,0.5,3,0.5,1.5\n"
            "3,4,3,4,12\n");
}

TEST(RunSweep, OutputIsByteIdenticalAcrossJobsDespiteSkewedCompletion) {
  // The first grid points stall, so with 4 workers the later points finish
  // first; the aggregate must not care.
  SweepOptions sweep;
  sweep.axes = {{"delay_ms", {"30", "20", "0", "0"}}, {"x", {"5", "7"}}};
  sweep.jobs = 1;
  const std::string serial = run_probe_sweep(sweep);
  sweep.jobs = 4;
  const std::string parallel = run_probe_sweep(sweep);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("0,7,7,1,7\n"), std::string::npos) << serial;
}

TEST(RunSweep, DropsCommentaryFromAggregate) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1"}}};
  const std::string out = run_probe_sweep(sweep);
  EXPECT_EQ(out.find("#"), std::string::npos);
  EXPECT_EQ(out.find("NOTE"), std::string::npos);
}

TEST(RunSweep, BaseSetOverridesApplyToEveryPoint) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}};
  sweep.base.set_param("y", "10");
  const std::string out = run_probe_sweep(sweep);
  EXPECT_EQ(out,
            "x,x,y,product\n"
            "1,1,10,10\n"
            "2,2,10,20\n");
}

TEST(RunSweep, RejectsUndeclaredAxisBeforeRunningAnything) {
  SweepOptions sweep;
  sweep.axes = {{"no_such_knob", {"1"}}};
  std::string err;
  run_probe_sweep(sweep, 2, &err);
  EXPECT_NE(err.find("unknown parameter 'no_such_knob'"), std::string::npos);
  EXPECT_NE(err.find("sweep point no_such_knob=1"), std::string::npos);
}

TEST(RunSweep, RejectsValueBelowDeclaredMinimum) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"5", "-1"}}};
  std::string err;
  run_probe_sweep(sweep, 2, &err);
  EXPECT_NE(err.find("below the minimum"), std::string::npos);
}

TEST(RunSweep, ReportsFailingPointsByLabel) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}, {"fail", {"false", "true"}}};
  std::string err;
  const std::string out = run_probe_sweep(sweep, 1, &err);
  EXPECT_TRUE(out.empty());
  EXPECT_NE(err.find("sweep point x=1,fail=true failed"), std::string::npos);
  EXPECT_NE(err.find("sweep point x=2,fail=true failed"), std::string::npos);
}

TEST(RunSweep, ShardWithAFailedPointWritesNoPartial) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}, {"fail", {"false", "true"}}};
  // Shard 1/2 owns grid points 1 and 3: x=1,fail=true and x=2,fail=true.
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  std::string err;
  const std::string out = run_probe_sweep(sweep, 1, &err);
  EXPECT_TRUE(out.empty());
  EXPECT_NE(err.find("sweep point x=1,fail=true failed"), std::string::npos);
  EXPECT_NE(err.find("sweep point x=2,fail=true failed"), std::string::npos);
}

TEST(RunSweep, RejectsMismatchedHeadersAcrossPoints) {
  SweepOptions sweep;
  sweep.axes = {{"alt_header", {"false", "true"}}};
  std::string err;
  run_probe_sweep(sweep, 1, &err);
  EXPECT_NE(err.find("emitted CSV header"), std::string::npos);
}

TEST(RunSweep, RaggedRowPassesThroughTheRawAggregateVerbatim) {
  SweepOptions sweep;
  sweep.axes = {{"ragged", {"true"}}};
  sweep.replicate = 1;
  EXPECT_EQ(run_probe_sweep(sweep),
            "ragged,x,y,product\n"
            "true,1,2,3,4\n");
}

TEST(RunSweep, RaggedRowFailsTheReplicatedAggregateWithItsRunLabel) {
  SweepOptions sweep;
  sweep.axes = {{"ragged", {"true"}}};
  sweep.replicate = 2;
  sweep.base.seed = 5;
  std::string err;
  EXPECT_TRUE(run_probe_sweep(sweep, 1, &err).empty());
  EXPECT_NE(err.find("cells but the header"), std::string::npos) << err;
  EXPECT_NE(err.find("(sweep point ragged=true replicate 1/2 (seed 5))"),
            std::string::npos)
      << err;
}

TEST(RunSweep, RejectsDuplicateAxisKeys) {
  // set_param is last-write-wins, so a second axis for the same key would
  // run different values than the first axis' column claims.
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}, {"y", {"3"}}, {"x", {"4"}}};
  std::string err;
  run_probe_sweep(sweep, 2, &err);
  EXPECT_NE(err.find("duplicate --sweep axis for key 'x'"),
            std::string::npos);
}

TEST(RunSweep, RejectsOversizedGridProduct) {
  // Each axis is within the per-axis limit, but the product is not.
  const std::vector<std::string> thousand(1000, "1");
  SweepOptions sweep;
  sweep.axes = {{"x", thousand}, {"y", thousand}, {"delay_ms", thousand}};
  std::string err;
  run_probe_sweep(sweep, 2, &err);
  EXPECT_NE(err.find("exceeds 1000000 points"), std::string::npos);
}

TEST(RunSweep, RequiresAtLeastOneAxis) {
  SweepOptions sweep;
  std::string err;
  run_probe_sweep(sweep, 2, &err);
  EXPECT_NE(err.find("at least one --sweep"), std::string::npos);
}

TEST(ReplicateSeed, ReplicateZeroIsTheBaseSeed) {
  EXPECT_EQ(derive_replicate_seed(0, 0), 0u);
  EXPECT_EQ(derive_replicate_seed(17, 0), 17u);
}

TEST(ReplicateSeed, DerivedSeedsArePureAndDecorrelated) {
  // Pure function of (base, rep): stable across calls, distinct across
  // replicates, and distinct across nearby bases (the avalanche mix).
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 17ull, 1'000'000'007ull}) {
    for (std::uint64_t rep = 0; rep < 8; ++rep) {
      const std::uint64_t s = derive_replicate_seed(base, rep);
      EXPECT_EQ(s, derive_replicate_seed(base, rep));
      EXPECT_TRUE(seen.insert(s).second)
          << "collision at base " << base << " rep " << rep;
    }
  }
}

std::string run_replicate_sweep(SweepOptions sweep, int expected_rc = 0,
                                std::string* err_out = nullptr) {
  std::ostringstream out, err;
  const int rc = run_sweep(replicate_probe(), sweep, out, err);
  EXPECT_EQ(rc, expected_rc) << err.str();
  if (err_out != nullptr) *err_out = err.str();
  return out.str();
}

TEST(RunSweep, ExplicitReplicateOneKeepsRawRowOutput) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}};
  const std::string raw = run_replicate_sweep(sweep);
  sweep.replicate = 1;
  EXPECT_EQ(run_replicate_sweep(sweep), raw);
  EXPECT_EQ(raw,
            "x,x,sample\n"
            "1,1,100\n"
            "2,2,100\n");
}

TEST(RunSweep, ReplicatedAggregateMatchesHandComputedMean) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"4"}}};
  sweep.replicate = 3;
  sweep.base.seed = 7;
  const std::string out = run_replicate_sweep(sweep);

  // Replicate 0 runs the base seed, replicates 1 and 2 the derived stream;
  // the probe's sample is seed % 1000.
  const double s0 = 7 % 1000;
  const double s1 = static_cast<double>(derive_replicate_seed(7, 1) % 1000);
  const double s2 = static_cast<double>(derive_replicate_seed(7, 2) % 1000);
  const double mean = (s0 + s1 + s2) / 3.0;

  std::istringstream is{out};
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  EXPECT_FALSE(std::getline(is, extra)) << out;  // one aggregate row
  EXPECT_EQ(header, "x,x_mean,x_cov,sample_mean,sample_cov,n_rep");
  const auto cells = summary::split_csv(row);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0], "4");
  EXPECT_EQ(cells[1], "4");  // the swept value itself, zero dispersion
  EXPECT_EQ(cells[2], "0");
  EXPECT_NEAR(std::stod(cells[3]), mean, mean * 1e-5);
  EXPECT_GT(std::stod(cells[4]), 0.0);  // distinct seeds => dispersion
  EXPECT_EQ(cells[5], "3");
}

TEST(RunSweep, ReplicatedAggregateIsByteIdenticalAcrossJobsAndRuns) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3"}}};
  sweep.replicate = 4;
  sweep.jobs = 1;
  const std::string serial = run_replicate_sweep(sweep);
  sweep.jobs = 4;
  const std::string parallel = run_replicate_sweep(sweep);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(parallel, run_replicate_sweep(sweep));  // repeated invocation
}

TEST(RunSweep, UnsetSeedReplicatesDeriveFromBaseZero) {
  // With no --seed the whole replicate set derives from base 0 — including
  // replicate 0 — so a bare replicated sweep and `--seed 0` agree exactly
  // instead of sharing all but the first replicate.
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}};
  sweep.replicate = 3;
  const std::string unset = run_replicate_sweep(sweep);
  sweep.base.seed = 0;
  EXPECT_EQ(run_replicate_sweep(sweep), unset);
}

TEST(RunSweep, LabelColumnsGroupTheReplicatedAggregate) {
  const Scenario* s =
      ScenarioRegistry::instance().find("test_grouped_probe");
  ASSERT_NE(s, nullptr);
  SweepOptions sweep;
  sweep.axes = {{"x", {"2"}}};
  sweep.replicate = 2;
  sweep.base.seed = 3;
  std::ostringstream out, err;
  ASSERT_EQ(run_sweep(*s, sweep, out, err), 0) << err.str();

  // alpha varies with the derived seeds; beta is seed-independent, so its
  // mean is exact and its CoV zero.  One aggregate row per flow, in
  // first-appearance order.
  const double a0 = 2.0 * static_cast<double>(3 % 100);
  const double a1 =
      2.0 * static_cast<double>(derive_replicate_seed(3, 1) % 100);
  std::istringstream is{out.str()};
  std::string header, alpha_row, beta_row, extra;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, alpha_row));
  ASSERT_TRUE(std::getline(is, beta_row));
  EXPECT_FALSE(std::getline(is, extra)) << out.str();
  EXPECT_EQ(header, "x,flow,value_mean,value_cov,n_rep");
  const auto alpha = summary::split_csv(alpha_row);
  ASSERT_EQ(alpha.size(), 5u);
  EXPECT_EQ(alpha[1], "alpha");
  EXPECT_NEAR(std::stod(alpha[2]), (a0 + a1) / 2.0,
              1e-4 * ((a0 + a1) / 2.0 + 1.0));
  EXPECT_EQ(alpha[4], "2");
  EXPECT_EQ(beta_row, "2,beta,1002,0,2");
}

TEST(RunSweep, StatsSelectionControlsAggregateColumns) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"2"}}};
  sweep.replicate = 2;
  sweep.stats = {summary::Stat::kMin, summary::Stat::kMax};
  const std::string out = run_replicate_sweep(sweep);
  EXPECT_EQ(out.rfind("x,x_min,x_max,sample_min,sample_max,n_rep\n", 0), 0u)
      << out;
}

TEST(RunSweep, ThrowingScenarioReportsMessageWithPointAssignment) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}, {"throw_msg", {"", "boom"}}};
  std::string err;
  const std::string out = run_probe_sweep(sweep, 1, &err);
  EXPECT_TRUE(out.empty());
  EXPECT_NE(err.find("sweep point x=1,throw_msg=boom failed with "
                     "exception: boom"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("sweep point x=2,throw_msg=boom failed with "
                     "exception: boom"),
            std::string::npos)
      << err;
}

TEST(RunSweep, ThrowingReplicateIsNamedWithItsDerivedSeed) {
  SweepOptions sweep;
  sweep.axes = {{"throw_msg", {"kaput"}}};
  sweep.replicate = 2;
  sweep.base.seed = 5;
  std::string err;
  run_probe_sweep(sweep, 1, &err);
  EXPECT_NE(err.find("replicate 1/2 (seed 5)"), std::string::npos) << err;
  EXPECT_NE(err.find("replicate 2/2 (seed " +
                     std::to_string(derive_replicate_seed(5, 1)) + ")"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("failed with exception: kaput"), std::string::npos)
      << err;
}

TEST(RunSweep, ReplicateMultipliesIntoTheRunCap) {
  const std::vector<std::string> thousand(1000, "1");
  SweepOptions sweep;
  sweep.axes = {{"x", thousand}, {"y", thousand}};
  sweep.replicate = 2;
  std::string err;
  run_probe_sweep(sweep, 2, &err);
  EXPECT_NE(err.find("times --replicate exceeds"), std::string::npos);
}

TEST(PointLabel, JoinsKeysAndValues) {
  EXPECT_EQ(point_label({{"n", {}}, {"trials", {}}}, {"8", "50"}),
            "n=8,trials=50");
}

TEST(SweepPointCost, MultipliesNumericAxisValuesAboveOne) {
  EXPECT_DOUBLE_EQ(sweep_point_cost({"2000", "50"}), 100000.0);
  // Non-numeric and <= 1 values contribute a neutral factor.
  EXPECT_DOUBLE_EQ(sweep_point_cost({"fast", "0.5", "8"}), 8.0);
  EXPECT_DOUBLE_EQ(sweep_point_cost({}), 1.0);
  EXPECT_DOUBLE_EQ(sweep_point_cost({"label", "1"}), 1.0);
}

TEST(WeightedEta, ExtrapolatesOverRemainingWorkNotRunCount) {
  // Half the *work* done in 10s: 10s remain, regardless of how many runs
  // produced that weight.
  EXPECT_DOUBLE_EQ(weighted_eta_seconds(10.0, 50.0, 100.0), 10.0);
  // 90% of the work in 9s leaves 1s, where a run-count ETA on an uneven
  // grid could claim far more.
  EXPECT_NEAR(weighted_eta_seconds(9.0, 90.0, 100.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(weighted_eta_seconds(5.0, 0.0, 100.0), 0.0);
  // Weight overrun (cost hints are estimates) clamps to zero, never
  // negative.
  EXPECT_DOUBLE_EQ(weighted_eta_seconds(5.0, 120.0, 100.0), 0.0);
}

TEST(RunSweep, ForcedProgressReportsShardLocalCounts) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3", "4", "5"}}};
  sweep.progress = true;
  sweep.shard_index = 1;
  sweep.shard_count = 3;
  std::ostringstream out, err;
  ASSERT_EQ(run_sweep(probe(), sweep, out, err), 0) << err.str();
  // Shard 1/3 of five points owns x=2 and x=5: two runs, counted locally.
  EXPECT_NE(err.str().find("sweep shard 1/3: 2/2 runs (100%)"),
            std::string::npos)
      << err.str();
}

TEST(RunSweep, UnshardedProgressKeepsThePlainLabel) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}};
  sweep.progress = true;
  std::ostringstream out, err;
  ASSERT_EQ(run_sweep(probe(), sweep, out, err), 0) << err.str();
  EXPECT_NE(err.str().find("sweep: 2/2 runs (100%)"), std::string::npos)
      << err.str();
}

// --- graceful shutdown (request_sweep_interrupt) --------------------------

std::string sweep_temp(const std::string& name) {
  return ::testing::TempDir() + "tfmcc_sweep_" + name;
}

TEST(RunSweep, InterruptFlushesAFinalCheckpointAndResumeCompletes) {
  const std::string marker = sweep_temp("intr_marker");
  const std::string ckpt = sweep_temp("intr.ckpt");
  std::remove(marker.c_str());
  std::remove(ckpt.c_str());

  SweepOptions plain;
  plain.axes = {{"x", {"1", "2", "3", "4"}}};
  const std::string full = run_probe_sweep(plain);

  // checkpoint_every is far past the task count, so the only write that
  // can produce the checkpoint is the forced interrupt flush.
  SweepOptions sweep = plain;
  sweep.base.set_param("interrupt_once_file", marker);
  sweep.checkpoint_path = ckpt;
  sweep.checkpoint_every = 100;
  std::string err;
  const std::string out = run_probe_sweep(sweep, 1, &err);
  EXPECT_TRUE(out.empty());
  EXPECT_NE(err.find("interrupted; checkpoint flushed to '" + ckpt + "'"),
            std::string::npos)
      << err;

  SweepOptions resumed = sweep;
  resumed.resume_path = ckpt;
  const std::string res = run_probe_sweep(resumed, 0, &err);
  // The marker now exists, so the resumed run completes; the extra base
  // --set does not change the rows, so output matches the plain sweep.
  EXPECT_EQ(res, full);
  std::remove(marker.c_str());
  std::remove(ckpt.c_str());
}

TEST(RunSweep, InterruptWithoutACheckpointStillStopsNonzero) {
  const std::string marker = sweep_temp("intr_nockpt_marker");
  std::remove(marker.c_str());
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3", "4"}}};
  sweep.base.set_param("interrupt_once_file", marker);
  std::string err;
  const std::string out = run_probe_sweep(sweep, 1, &err);
  EXPECT_TRUE(out.empty());
  EXPECT_NE(err.find("sweep: interrupted"), std::string::npos) << err;
  EXPECT_EQ(err.find("flushed"), std::string::npos) << err;
  std::remove(marker.c_str());
}

}  // namespace
}  // namespace tfmcc
