// Unit tests for the column-statistics engine (analysis/summary.hpp):
// Welford accumulation against hand-computed mean/stddev/cov, the
// single-sample and zero-mean edge cases, non-numeric label columns
// (pass-through and group-by) in ColumnSummary, --stats list parsing, and
// the expanded header/row shape the replicated sweep aggregate is built
// from.

#include "analysis/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace tfmcc::summary {
namespace {

TEST(Welford, MatchesHandComputedStatistics) {
  // Samples 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample variance 32/7.
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(w.stddev() * w.stddev(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(w.cov(), std::sqrt(32.0 / 7.0) / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, SingleSampleHasZeroDispersion) {
  Welford w;
  w.add(42.5);
  EXPECT_DOUBLE_EQ(w.mean(), 42.5);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.cov(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 42.5);
  EXPECT_DOUBLE_EQ(w.max(), 42.5);
}

TEST(Welford, ZeroMeanYieldsZeroCov) {
  // stddev/|mean| is undefined at mean 0; the engine pins it to 0 instead
  // of emitting inf/nan into the aggregate CSV.
  Welford w;
  w.add(-1.0);
  w.add(1.0);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_GT(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.cov(), 0.0);
}

TEST(Welford, CovOfConstantIsZero) {
  Welford w;
  for (int i = 0; i < 10; ++i) w.add(3.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.cov(), 0.0);
}

TEST(Welford, NegativeMeanUsesAbsoluteValueForCov) {
  Welford w;
  w.add(-4.0);
  w.add(-6.0);
  EXPECT_DOUBLE_EQ(w.mean(), -5.0);
  EXPECT_NEAR(w.cov(), std::sqrt(2.0) / 5.0, 1e-12);
}

TEST(Welford, EmptyAccumulatorReportsZeros) {
  const Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 0.0);
  EXPECT_DOUBLE_EQ(w.max(), 0.0);
}

TEST(Welford, ValueDispatchesByStat) {
  Welford w;
  w.add(1.0);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.value(Stat::kMean), w.mean());
  EXPECT_DOUBLE_EQ(w.value(Stat::kStddev), w.stddev());
  EXPECT_DOUBLE_EQ(w.value(Stat::kCov), w.cov());
  EXPECT_DOUBLE_EQ(w.value(Stat::kMin), 1.0);
  EXPECT_DOUBLE_EQ(w.value(Stat::kMax), 3.0);
}

TEST(StatsParse, AcceptsNamesInGivenOrder) {
  std::vector<Stat> stats;
  std::ostringstream err;
  ASSERT_TRUE(parse_stats("max,mean,cov", stats, err)) << err.str();
  EXPECT_EQ(stats, (std::vector<Stat>{Stat::kMax, Stat::kMean, Stat::kCov}));
}

TEST(StatsParse, RejectsUnknownEmptyAndDuplicate) {
  std::vector<Stat> stats;
  std::ostringstream err;
  EXPECT_FALSE(parse_stats("mean,median", stats, err));
  EXPECT_NE(err.str().find("unknown statistic 'median'"), std::string::npos);
  err.str({});
  EXPECT_FALSE(parse_stats("", stats, err));
  EXPECT_NE(err.str().find("unknown statistic"), std::string::npos);
  err.str({});
  EXPECT_FALSE(parse_stats("mean,cov,mean", stats, err));
  EXPECT_NE(err.str().find("duplicate statistic 'mean'"), std::string::npos);
}

TEST(SplitCsv, KeepsEmptyCells) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split_csv("x"), (std::vector<std::string>{"x"}));
}

ColumnSummary feed(std::vector<std::string> columns,
                   const std::vector<std::vector<std::string>>& rows) {
  ColumnSummary acc{std::move(columns)};
  std::ostringstream err;
  for (const auto& row : rows) {
    EXPECT_TRUE(acc.add_row(row, err)) << err.str();
  }
  return acc;
}

TEST(ColumnSummary, ExpandsNumericColumnsPerStat) {
  const ColumnSummary acc =
      feed({"t", "kbps"}, {{"1", "100"}, {"2", "300"}, {"3", "200"}});
  const std::vector<Stat> stats{Stat::kMean, Stat::kCov};
  EXPECT_EQ(acc.row_count(), 3u);
  EXPECT_EQ(acc.header(stats), (std::vector<std::string>{
                                   "t_mean", "t_cov", "kbps_mean",
                                   "kbps_cov"}));
  const auto rows = acc.summarize(stats);
  ASSERT_EQ(rows.size(), 1u);  // all-numeric trace: exactly one group
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_EQ(rows[0][0], "2");    // mean of 1,2,3
  EXPECT_EQ(rows[0][2], "200");  // mean of 100,300,200
  EXPECT_EQ(rows[0][3], "0.5");  // stddev 100 / mean 200
}

TEST(ColumnSummary, SingleLabelValuePassesThroughUnchanged) {
  const ColumnSummary acc = feed(
      {"proto", "kbps"}, {{"tfmcc", "100"}, {"tfmcc", "200"}});
  const std::vector<Stat> stats{Stat::kMean};
  EXPECT_EQ(acc.header(stats),
            (std::vector<std::string>{"proto", "kbps_mean"}));
  EXPECT_EQ(acc.summarize(stats),
            (std::vector<std::vector<std::string>>{{"tfmcc", "150"}}));
}

TEST(ColumnSummary, LabelColumnGroupsRowsPerDistinctValue) {
  // A per-flow trace must not pool flows into one row under the first
  // flow's label: each distinct label tuple gets its own statistics, in
  // first-appearance order.
  const ColumnSummary acc = feed({"flow", "kbps"}, {{"TFMCC", "100"},
                                                    {"TCP 1", "400"},
                                                    {"TFMCC", "300"},
                                                    {"TCP 1", "600"}});
  const std::vector<Stat> stats{Stat::kMean};
  EXPECT_EQ(acc.header(stats),
            (std::vector<std::string>{"flow", "kbps_mean"}));
  EXPECT_EQ(acc.summarize(stats),
            (std::vector<std::vector<std::string>>{{"TFMCC", "200"},
                                                   {"TCP 1", "500"}}));
}

TEST(ColumnSummary, LateNonNumericCellDemotesTheColumn) {
  // The first rows parse, a later one does not: the column must become a
  // label (grouping rows), not report a half-fed mean.
  const ColumnSummary acc = feed({"v"}, {{"1"}, {"2"}, {"n/a"}, {"2"}});
  const std::vector<Stat> stats{Stat::kMean};
  EXPECT_EQ(acc.header(stats), (std::vector<std::string>{"v"}));
  EXPECT_EQ(acc.summarize(stats),
            (std::vector<std::vector<std::string>>{{"1"}, {"2"}, {"n/a"}}));
}

TEST(ColumnSummary, NonFiniteCellIsNonNumeric) {
  const ColumnSummary acc = feed({"v"}, {{"inf"}, {"2"}});
  EXPECT_EQ(acc.header({Stat::kMean}), (std::vector<std::string>{"v"}));
}

TEST(ColumnSummary, RejectsArityMismatch) {
  ColumnSummary acc{{"a", "b"}};
  std::ostringstream err;
  EXPECT_FALSE(acc.add_row({"1"}, err));
  EXPECT_NE(err.str().find("declares 2 columns"), std::string::npos);
  EXPECT_EQ(acc.row_count(), 0u);
}

TEST(ColumnSummary, DefaultStatsAreMeanAndCov) {
  EXPECT_EQ(default_stats(), (std::vector<Stat>{Stat::kMean, Stat::kCov}));
}

TEST(JoinCsv, InvertsSplitCsvByteForByte) {
  for (const std::string line : {"a,b,c", "", ",", "x,,y,", "solo"}) {
    EXPECT_EQ(join_csv(split_csv(line)), line) << line;
  }
}

}  // namespace
}  // namespace tfmcc::summary
