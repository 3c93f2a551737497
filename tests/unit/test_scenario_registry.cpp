#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

int null_scenario(const ScenarioOptions&) { return 0; }

TEST(ScenarioRegistry, LookupFindsRegisteredScenario) {
  ScenarioRegistry reg;
  ASSERT_TRUE(reg.add("alpha", "first", &null_scenario));
  const Scenario* s = reg.find("alpha");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name, "alpha");
  EXPECT_EQ(s->description, "first");
  EXPECT_EQ(s->fn, &null_scenario);
  EXPECT_EQ(reg.find("beta"), nullptr);
}

TEST(ScenarioRegistry, DuplicateNameKeepsFirstRegistration) {
  ScenarioRegistry reg;
  ASSERT_TRUE(reg.add("alpha", "first", &null_scenario));
  EXPECT_FALSE(reg.add("alpha", "second", &null_scenario));
  EXPECT_EQ(reg.find("alpha")->description, "first");
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ScenarioRegistry, NamesAreSorted) {
  ScenarioRegistry reg;
  reg.add("zebra", "", &null_scenario);
  reg.add("alpha", "", &null_scenario);
  reg.add("mid", "", &null_scenario);
  const std::vector<std::string> expected{"alpha", "mid", "zebra"};
  EXPECT_EQ(reg.names(), expected);
}

TEST(ScenarioRegistry, UnknownNameReportsErrorAndKnownScenarios) {
  ScenarioRegistry reg;
  reg.add("alpha", "", &null_scenario);
  std::ostringstream err;
  EXPECT_EQ(reg.run("missing", {}, err), -1);
  EXPECT_NE(err.str().find("unknown scenario 'missing'"), std::string::npos);
  EXPECT_NE(err.str().find("alpha"), std::string::npos);
}

TEST(ScenarioRegistry, RunForwardsOptionsAndExitCode) {
  ScenarioRegistry reg;
  reg.add("probe", "", [](const ScenarioOptions& o) {
    EXPECT_EQ(o.duration_or(1_sec), SimTime::seconds(2.5));
    EXPECT_EQ(o.seed_or(0), 99u);
    return 42;
  });
  ScenarioOptions opts;
  opts.duration = SimTime::seconds(2.5);
  opts.seed = 99;
  std::ostringstream err;
  EXPECT_EQ(reg.run("probe", opts, err), 42);
  EXPECT_TRUE(err.str().empty());
}

// The macro registers into the process-wide instance.
TFMCC_SCENARIO(test_registry_macro_scenario, "macro-registered scenario") {
  return opts.seed_or(0) == 0 ? 0 : 1;
}

TEST(ScenarioRegistry, MacroRegistersIntoGlobalInstance) {
  const Scenario* s =
      ScenarioRegistry::instance().find("test_registry_macro_scenario");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->description, "macro-registered scenario");
  std::ostringstream err;
  EXPECT_EQ(ScenarioRegistry::instance().run("test_registry_macro_scenario",
                                             {}, err),
            0);
}

TEST(ScenarioOptions, DefaultsApplyOnlyWhenUnset) {
  ScenarioOptions opts;
  EXPECT_EQ(opts.duration_or(200_sec), SimTime::seconds(200));
  EXPECT_EQ(opts.seed_or(91), 91u);
  opts.duration = 5_sec;
  opts.seed = 7;
  EXPECT_EQ(opts.duration_or(200_sec), SimTime::seconds(5));
  EXPECT_EQ(opts.seed_or(91), 7u);
}

TEST(ParseScenarioOptions, ParsesDurationAndSeed) {
  const char* argv[] = {"--duration", "12.5", "--seed", "321"};
  ScenarioOptions opts;
  std::ostringstream err;
  ASSERT_TRUE(parse_scenario_options(4, const_cast<char**>(argv), opts, err));
  ASSERT_TRUE(opts.duration.has_value());
  EXPECT_EQ(*opts.duration, SimTime::seconds(12.5));
  ASSERT_TRUE(opts.seed.has_value());
  EXPECT_EQ(*opts.seed, 321u);
}

TEST(ParseScenarioOptions, RejectsMalformedInput) {
  const struct {
    std::vector<const char*> argv;
  } cases[] = {
      {{"--duration"}},            // missing value
      {{"--duration", "banana"}},  // not a number
      {{"--duration", "-3"}},      // not positive
      {{"--seed"}},                // missing value
      {{"--seed", "3.5"}},         // not an integer
      {{"--frobnicate", "1"}},     // unknown flag
  };
  for (const auto& c : cases) {
    ScenarioOptions opts;
    std::ostringstream err;
    EXPECT_FALSE(parse_scenario_options(static_cast<int>(c.argv.size()),
                                        const_cast<char**>(c.argv.data()),
                                        opts, err));
    EXPECT_FALSE(err.str().empty());
  }
}

TEST(ScenarioRegistry, SeedPlumbingIsDeterministic) {
  // A scenario that derives all randomness from opts.seed_or must produce
  // identical results across runs with the same --seed and (almost surely)
  // different results for different seeds.
  static std::uint64_t last_draw;
  ScenarioRegistry reg;
  reg.add("draws", "", [](const ScenarioOptions& o) {
    Rng rng{o.seed_or(1)};
    last_draw = rng.next_u64();
    return 0;
  });
  std::ostringstream err;
  ScenarioOptions seeded;
  seeded.seed = 7;

  reg.run("draws", seeded, err);
  const std::uint64_t first = last_draw;
  reg.run("draws", seeded, err);
  EXPECT_EQ(last_draw, first);

  ScenarioOptions other;
  other.seed = 8;
  reg.run("draws", other, err);
  EXPECT_NE(last_draw, first);
}

}  // namespace
}  // namespace tfmcc
