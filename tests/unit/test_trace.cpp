// Unit tests for the per-run trace (sim/trace.hpp): commentary stripping,
// header/row splitting, and empty and ragged cells surviving the split.

#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tfmcc {
namespace {

constexpr const char* kSampleText =
    "# figure header commentary\n"
    "\n"
    "flow,time_s,kbps\n"
    "alpha,0.5,120\n"
    "CHECK throughput within bounds\n"
    "beta,1.5,240.25\n"
    "NOTE: run complete\n";

using Row = std::vector<std::string>;

TEST(RunTrace, ParsesHeaderAndRowsDroppingCommentary) {
  const RunTrace t = RunTrace::parse_text(kSampleText);
  EXPECT_EQ(t.header, "flow,time_s,kbps");
  EXPECT_EQ(t.rows, (std::vector<Row>{{"alpha", "0.5", "120"},
                                      {"beta", "1.5", "240.25"}}));
}

TEST(RunTrace, EmptyCellsAndRaggedRowsSurvive) {
  const RunTrace t = RunTrace::parse_text("a,b\n1,,3\n,\n");
  EXPECT_EQ(t.rows, (std::vector<Row>{{"1", "", "3"}, {"", ""}}));
}

TEST(RunTrace, CommentaryOnlyOutputYieldsEmptyTrace) {
  const RunTrace t = RunTrace::parse_text("# nothing\nNOTE: but talk\n\n");
  EXPECT_EQ(t.header, "");
  EXPECT_TRUE(t.rows.empty());
}

TEST(RunTrace, LastLineWithoutTrailingNewlineIsKept) {
  const RunTrace t = RunTrace::parse_text("h1,h2\n5,6");
  EXPECT_EQ(t.rows, (std::vector<Row>{{"5", "6"}}));
}

TEST(RunTrace, IsCommentaryMatchesTheScenarioConventions) {
  EXPECT_TRUE(RunTrace::is_commentary(""));
  EXPECT_TRUE(RunTrace::is_commentary("# fig07"));
  EXPECT_TRUE(RunTrace::is_commentary("CHECK cov < 0.2"));
  EXPECT_TRUE(RunTrace::is_commentary("NOTE: warming up"));
  EXPECT_FALSE(RunTrace::is_commentary("flow,kbps"));
  EXPECT_FALSE(RunTrace::is_commentary("CHECKED,1"));
}

}  // namespace
}  // namespace tfmcc
