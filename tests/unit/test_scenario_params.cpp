// Unit tests for the typed `--set key=value` scenario-parameter passthrough:
// command-line parsing, type coercion in param_or<T>, and the unknown-key /
// malformed-value diagnostics produced by pre-run validation, and the
// scenario output sink's text and capture renderers.

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"
#include "util/csv.hpp"

namespace tfmcc {
namespace {

bool parse(std::vector<const char*> argv, ScenarioOptions& opts,
           std::string* err_out = nullptr) {
  std::ostringstream err;
  const bool ok =
      parse_scenario_options(static_cast<int>(argv.size()),
                             const_cast<char**>(argv.data()), opts, err);
  if (err_out != nullptr) *err_out = err.str();
  return ok;
}

TEST(ParseSet, AccumulatesKeyValuePairs) {
  ScenarioOptions opts;
  ASSERT_TRUE(parse({"--set", "n_receivers=1000", "--set", "loss_rate=0.05",
                     "--duration", "20"},
                    opts));
  EXPECT_EQ(opts.params().size(), 2u);
  EXPECT_TRUE(opts.has_param("n_receivers"));
  EXPECT_TRUE(opts.has_param("loss_rate"));
  EXPECT_FALSE(opts.has_param("bottleneck_bps"));
  ASSERT_TRUE(opts.duration.has_value());
  EXPECT_EQ(*opts.duration, SimTime::seconds(20));
}

TEST(ParseSet, LastWriteWinsOnDuplicateKeys) {
  ScenarioOptions opts;
  ASSERT_TRUE(parse({"--set", "n=4", "--set", "n=8"}, opts));
  EXPECT_EQ(opts.param_or("n", 0), 8);
}

TEST(ParseSet, ValueMayContainEqualsSign) {
  ScenarioOptions opts;
  ASSERT_TRUE(parse({"--set", "expr=a=b"}, opts));
  EXPECT_EQ(opts.param_or("expr", ""), "a=b");
}

TEST(ParseSet, RejectsMalformedSyntax) {
  const struct {
    std::vector<const char*> argv;
  } cases[] = {
      {{"--set"}},               // missing key=value
      {{"--set", "no_equals"}},  // no '='
      {{"--set", "=value"}},     // empty key
  };
  for (const auto& c : cases) {
    ScenarioOptions opts;
    std::string err;
    EXPECT_FALSE(parse(c.argv, opts, &err));
    EXPECT_NE(err.find("--set expects key=value"), std::string::npos) << err;
  }
}

TEST(ParamOr, CoercesNumericSpellings) {
  ScenarioOptions opts;
  opts.set_param("n", "1000");
  opts.set_param("rate", "2e6");
  opts.set_param("frac", "0.05");
  opts.set_param("neg", "-3");
  EXPECT_EQ(opts.param_or("n", 0), 1000);
  EXPECT_EQ(opts.param_or<std::int64_t>("n", 0), 1000);
  EXPECT_EQ(opts.param_or<std::uint64_t>("n", 0), 1000u);
  EXPECT_DOUBLE_EQ(opts.param_or("n", 0.0), 1000.0);
  // Scientific notation reads as a whole number for integer params too.
  EXPECT_EQ(opts.param_or<std::int64_t>("rate", 0), 2000000);
  EXPECT_DOUBLE_EQ(opts.param_or("rate", 0.0), 2e6);
  EXPECT_DOUBLE_EQ(opts.param_or("frac", 0.0), 0.05);
  EXPECT_EQ(opts.param_or("neg", 0), -3);
}

TEST(ParamOr, CoercesBoolsAndStrings) {
  ScenarioOptions opts;
  opts.set_param("red", "true");
  opts.set_param("tail", "0");
  opts.set_param("label", "with_memory");
  EXPECT_TRUE(opts.param_or("red", false));
  EXPECT_FALSE(opts.param_or("tail", true));
  EXPECT_EQ(opts.param_or("label", "dflt"), "with_memory");
}

TEST(ParamOr, AbsentKeyReturnsDefault) {
  ScenarioOptions opts;
  EXPECT_EQ(opts.param_or("n", 42), 42);
  EXPECT_DOUBLE_EQ(opts.param_or("x", 0.5), 0.5);
  EXPECT_EQ(opts.param_or("s", "dflt"), "dflt");
}

TEST(ParamOr, UnparsableValueFallsBackToDefault) {
  ScenarioOptions opts;
  opts.set_param("n", "banana");
  opts.set_param("f", "0.5x");
  opts.set_param("b", "maybe");
  opts.set_param("frac_int", "1.5");  // non-integral, rejected for int
  EXPECT_EQ(opts.param_or("n", 7), 7);
  EXPECT_DOUBLE_EQ(opts.param_or("f", 1.25), 1.25);
  EXPECT_TRUE(opts.param_or("b", true));
  EXPECT_EQ(opts.param_or("frac_int", 3), 3);
}

TEST(ParamOr, UndeclaredReadIsDiagnosedWhenSpecsAreBound) {
  // Regression: a scenario reading a key missing from its ParamSpec list
  // used to silently return the fallback — the knob looked live but
  // `--set` could never reach it.  With the scenario's specs bound (as the
  // registry does before dispatch) the read asserts in debug builds and
  // warns on stderr in release builds.
  const ParamSpecList specs{param("declared", 1, "the one real knob", 0)};
  ScenarioOptions opts;
  opts.bind_specs(&specs);
  EXPECT_EQ(opts.param_or("declared", 7), 7);  // absent -> default, silent
  EXPECT_DEBUG_DEATH(opts.param_or("undeclared", 7),
                     "undeclared parameter 'undeclared'");
#ifdef NDEBUG
  // Release builds keep running; verify the stderr diagnostic instead.
  testing::internal::CaptureStderr();
  EXPECT_EQ(opts.param_or("undeclared", 7), 7);
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("undeclared parameter 'undeclared'"),
            std::string::npos);
#endif
}

TEST(ParamOr, UncheckedWithoutBoundSpecs) {
  // Bare ScenarioOptions (unit tests, ad-hoc embedding) stay permissive;
  // the declared-key check only arms when a scenario's specs are bound.
  ScenarioOptions opts;
  EXPECT_EQ(opts.param_or("anything_goes", 9), 9);
}

TEST(ParseOutput, AcceptsPathAndRejectsMissingValue) {
  ScenarioOptions opts;
  ASSERT_TRUE(parse({"--output", "/tmp/trace.csv"}, opts));
  ASSERT_TRUE(opts.output_path.has_value());
  EXPECT_EQ(*opts.output_path, "/tmp/trace.csv");

  ScenarioOptions missing;
  std::string err;
  EXPECT_FALSE(parse({"--output"}, missing, &err));
  EXPECT_NE(err.find("--output expects a file path"), std::string::npos);
}

TEST(OutputSink, DefaultsToStdoutTextAndFollowsRedirection) {
  ScenarioOptions opts;
  testing::internal::CaptureStdout();
  opts.out().note("to stdout");
  std::cout.flush();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "NOTE: to stdout\n");
  std::ostringstream os;
  ScenarioOutput sink{os};
  opts.set_output(sink);
  EXPECT_EQ(&opts.out(), &sink);
  opts.out().note("redirected");
  EXPECT_EQ(os.str(), "NOTE: redirected\n");
}

/// Reports one of everything a scenario reports.
void report_all(ScenarioOutput& out) {
  out.figure_header("Figure 0", "all reports");
  out.note("before the table");
  CsvWriter csv(out, {"flow", "t", "kbps"});
  csv.row("tfmcc", 0.5, 1234.5678);
  csv.row(std::string{"tcp"}, 1, 1e9);
  out.check(true, "passes");
  out.check(false, "diverges");
}

TEST(OutputSink, TextRendersEveryReportAsItsLine) {
  std::ostringstream os;
  os << std::fixed;  // the target's flags never reach a cell
  ScenarioOutput text{os};
  report_all(text);
  const std::string want =
      "# Figure 0: all reports\n"
      "NOTE: before the table\n"
      "flow,t,kbps\n"
      "tfmcc,0.5,1234.57\n"
      "tcp,1,1e+09\n"
      "CHECK PASS: passes\n"
      "CHECK DIVERGES: diverges\n";
  EXPECT_EQ(os.str(), want);
  EXPECT_EQ(text.tellp(), want.size());
  EXPECT_TRUE(text.take_table().header.empty());
}

TEST(OutputSink, CaptureKeepsTheTableAndCountsTheTextBytes) {
  std::ostringstream os;
  ScenarioOutput text{os};
  report_all(text);
  ScenarioOutput capture;
  report_all(capture);
  EXPECT_EQ(capture.tellp(), os.str().size());
  const CsvTable table = capture.take_table();
  EXPECT_EQ(table.header, (std::vector<std::string>{"flow", "t", "kbps"}));
  EXPECT_EQ(table.rows, (std::vector<std::vector<std::string>>{
                            {"tfmcc", "0.5", "1234.57"},
                            {"tcp", "1", "1e+09"}}));
}

TEST(ParamSpecBuilder, PicksTypeAndDefaultFromCxxType) {
  const ParamSpec i = param("n", 4, "count");
  EXPECT_EQ(i.type, ParamType::kInt64);
  EXPECT_EQ(i.default_value, "4");
  const ParamSpec d = param("bps", 8e6, "rate");
  EXPECT_EQ(d.type, ParamType::kDouble);
  EXPECT_EQ(d.default_value, "8e+06");
  const ParamSpec b = param("red", true, "queue");
  EXPECT_EQ(b.type, ParamType::kBool);
  EXPECT_EQ(b.default_value, "true");
  const ParamSpec s = param("mode", "fast", "variant");
  EXPECT_EQ(s.type, ParamType::kString);
  EXPECT_EQ(s.default_value, "fast");
}

class ValidationTest : public testing::Test {
 protected:
  ValidationTest() {
    scenario_.name = "probe";
    scenario_.params = {param("n_receivers", 4, "count", 1),
                        param("loss_rate", 0.01, "loss", 0.0),
                        param("use_red", false, "queue discipline")};
  }
  Scenario scenario_;
};

TEST_F(ValidationTest, AcceptsDeclaredKeysWithCoercibleValues) {
  ScenarioOptions opts;
  opts.set_param("n_receivers", "1000");
  opts.set_param("loss_rate", "5e-2");
  opts.set_param("use_red", "on");
  std::ostringstream err;
  EXPECT_TRUE(validate_scenario_params(scenario_, opts, err));
  EXPECT_TRUE(err.str().empty()) << err.str();
}

TEST_F(ValidationTest, UnknownKeyIsDiagnosedWithKnownParams) {
  ScenarioOptions opts;
  opts.set_param("n_recievers", "8");  // typo
  std::ostringstream err;
  EXPECT_FALSE(validate_scenario_params(scenario_, opts, err));
  EXPECT_NE(err.str().find("unknown parameter 'n_recievers'"),
            std::string::npos);
  EXPECT_NE(err.str().find("n_receivers"), std::string::npos);
  EXPECT_NE(err.str().find("loss_rate"), std::string::npos);
}

TEST_F(ValidationTest, MalformedValueIsDiagnosedWithExpectedType) {
  ScenarioOptions opts;
  opts.set_param("loss_rate", "lots");
  std::ostringstream err;
  EXPECT_FALSE(validate_scenario_params(scenario_, opts, err));
  EXPECT_NE(err.str().find("malformed value 'lots'"), std::string::npos);
  EXPECT_NE(err.str().find("expected double"), std::string::npos);
}

TEST_F(ValidationTest, NonIntegralValueForIntParamIsMalformed) {
  ScenarioOptions opts;
  opts.set_param("n_receivers", "4.5");
  std::ostringstream err;
  EXPECT_FALSE(validate_scenario_params(scenario_, opts, err));
  EXPECT_NE(err.str().find("malformed value '4.5'"), std::string::npos);
}

TEST_F(ValidationTest, ValueBelowTheDeclaredMinimumIsRejected) {
  // Scenarios index arrays and drive loops with these values, so validation
  // enforces range, not just type: n_receivers=0 would crash fig09-style
  // indexing and negative loop steps would spin forever.
  for (const char* bad : {"0", "-3"}) {
    ScenarioOptions opts;
    opts.set_param("n_receivers", bad);
    std::ostringstream err;
    EXPECT_FALSE(validate_scenario_params(scenario_, opts, err)) << bad;
    EXPECT_NE(err.str().find("below the minimum 1"), std::string::npos)
        << err.str();
  }
  ScenarioOptions opts;
  opts.set_param("loss_rate", "-0.1");
  std::ostringstream err;
  EXPECT_FALSE(validate_scenario_params(scenario_, opts, err));
  EXPECT_NE(err.str().find("below the minimum 0"), std::string::npos);
}

TEST_F(ValidationTest, MinimumIsInclusive) {
  ScenarioOptions opts;
  opts.set_param("n_receivers", "1");
  opts.set_param("loss_rate", "0");
  std::ostringstream err;
  EXPECT_TRUE(validate_scenario_params(scenario_, opts, err)) << err.str();
}

TEST(ParamSpecBuilder, MinIsRecordedWhenGiven) {
  EXPECT_FALSE(param("n", 4, "count").min.has_value());
  const ParamSpec bounded = param("n", 4, "count", 1);
  ASSERT_TRUE(bounded.min.has_value());
  EXPECT_DOUBLE_EQ(*bounded.min, 1.0);
}

TEST(RegistryValidation, RunRejectsUnknownKeyBeforeTheScenarioExecutes) {
  static bool ran;
  ran = false;
  ScenarioRegistry reg;
  reg.add(
      "probe", "",
      [](const ScenarioOptions&) {
        ran = true;
        return 0;
      },
      {param("n", 4, "count")});
  ScenarioOptions opts;
  opts.set_param("m", "8");
  std::ostringstream err;
  EXPECT_EQ(reg.run("probe", opts, err), -1);
  EXPECT_FALSE(ran);
  EXPECT_NE(err.str().find("unknown parameter 'm'"), std::string::npos);
}

TEST(RegistryValidation, RunForwardsDeclaredOverridesToTheScenario) {
  ScenarioRegistry reg;
  reg.add(
      "probe", "",
      [](const ScenarioOptions& o) {
        return o.param_or("n", 0) == 1000 ? 0 : 1;
      },
      {param("n", 4, "count")});
  ScenarioOptions opts;
  opts.set_param("n", "1000");
  std::ostringstream err;
  EXPECT_EQ(reg.run("probe", opts, err), 0);
}

TEST(RegistryValidation, ScenarioWithoutParamsRejectsAnyOverride) {
  ScenarioRegistry reg;
  reg.add("bare", "", [](const ScenarioOptions&) { return 0; });
  ScenarioOptions opts;
  opts.set_param("n", "8");
  std::ostringstream err;
  EXPECT_EQ(reg.run("bare", opts, err), -1);
  EXPECT_NE(err.str().find("declares no parameters"), std::string::npos);
}

// The variadic macro form with parameter declarations registers the specs.
TFMCC_SCENARIO(test_params_macro_scenario, "macro scenario with params",
               tfmcc::param("knob", 3, "a declared knob")) {
  return opts.param_or("knob", 3);
}

TEST(RegistryValidation, MacroRegistersParamSpecs) {
  const Scenario* s =
      ScenarioRegistry::instance().find("test_params_macro_scenario");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->params.size(), 1u);
  EXPECT_EQ(s->params[0].name, "knob");
  EXPECT_EQ(s->params[0].type, ParamType::kInt64);
  EXPECT_EQ(s->params[0].default_value, "3");
  ASSERT_NE(s->find_param("knob"), nullptr);
  EXPECT_EQ(s->find_param("missing"), nullptr);
}

// The fig. 12 scenarios pick their receiver tier from `model_taps`: 0 runs
// every receiver as a full agent, otherwise the hybrid tier keeps
// min(full_receivers, n - 2) full.  Short runs: the tier NOTE prints before
// the simulation starts.
std::string run_scenario(const char* name,
                         std::vector<std::pair<const char*, const char*>> set,
                         int* rc = nullptr, std::string* err_out = nullptr) {
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(2);
  for (const auto& [key, value] : set) opts.set_param(key, value);
  std::ostringstream out;
  std::ostringstream err;
  ScenarioOutput text{out};
  opts.set_output(text);
  const int code = ScenarioRegistry::instance().run(name, opts, err);
  if (rc != nullptr) *rc = code;
  if (err_out != nullptr) *err_out = err.str();
  return out.str();
}

class TierSwitchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (ScenarioRegistry::instance().find("fig12_rtt_acquisition") ==
        nullptr) {
      GTEST_SKIP() << "bench scenarios not linked (TFMCC_BUILD_BENCH=OFF)";
    }
  }
};

TEST_F(TierSwitchTest, Fig12DefaultRunsEveryReceiverFull) {
  const std::string out =
      run_scenario("fig12_rtt_acquisition", {{"n_receivers", "40"}});
  EXPECT_EQ(out.find("hybrid tier"), std::string::npos) << out;
}

TEST_F(TierSwitchTest, Fig12ModelTapsSplitsThePopulation) {
  const std::string out = run_scenario(
      "fig12_rtt_acquisition", {{"model_taps", "4"}, {"n_receivers", "40"}});
  EXPECT_NE(out.find("NOTE: hybrid tier: 16 full + 24 modeled receivers on "
                     "4 taps"),
            std::string::npos)
      << out;
}

TEST_F(TierSwitchTest, ScaleWithoutTapsRunsEveryReceiverFull) {
  const std::string out = run_scenario(
      "scale_hybrid_receivers", {{"model_taps", "0"}, {"n_receivers", "40"}});
  EXPECT_EQ(out.find("hybrid tier"), std::string::npos) << out;
  EXPECT_NE(out.find("session endpoints: 40 (modeled 0)"), std::string::npos)
      << out;
}

TEST_F(TierSwitchTest, RemovedTierKnobIsAnUnknownParameter) {
  for (const char* name : {"fig12_rtt_acquisition", "scale_hybrid_receivers"}) {
    int rc = 0;
    std::string err;
    run_scenario(name, {{"receiver_model", "hybrid"}}, &rc, &err);
    EXPECT_EQ(rc, -1) << name;
    EXPECT_NE(err.find("unknown parameter 'receiver_model'"),
              std::string::npos)
        << err;
  }
}

}  // namespace
}  // namespace tfmcc
