#pragma once

// Column statistics over CSV rows: the aggregation engine behind
// `tfmcc_sim sweep --replicate N`.
//
// A ColumnSummary is constructed from a CSV header and fed data rows one at
// a time.  Columns whose every cell parses as a finite double are numeric;
// a single non-parsing cell demotes a column to a *label* for good.  The
// summary then groups the rows by the tuple of label-column values — a
// per-flow trace like fig09's `flow,time_s,kbps` yields one group per flow,
// an all-numeric trace yields exactly one group — and reports, per group,
// streaming statistics (Welford's algorithm, numerically stable in one
// pass) for each numeric column.  Each numeric column `c` expands to
// `c_mean`, `c_cov`, ... for the requested statistics; label columns keep
// their name and carry the group's value.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace tfmcc::summary {

/// The per-column statistics `--stats` can request.  `kCov` is the
/// coefficient of variation, stddev/|mean| — the dispersion measure the
/// paper-style scaling plots want, dimensionless across columns with very
/// different magnitudes.
enum class Stat { kMean, kStddev, kCov, kMin, kMax };

/// The `--stats` spelling of a statistic ("mean", "stddev", ...), also the
/// column-name suffix in the expanded header.
std::string_view stat_name(Stat s);

/// Parses a `--stats` list ("mean,cov" / "mean,stddev,min,max") in the
/// order given.  Returns false after a diagnostic on `err` for an empty
/// list, an unknown name, or a duplicate.
bool parse_stats(std::string_view text, std::vector<Stat>& out,
                 std::ostream& err);

/// The default statistics when `--stats` is not given: mean and CoV.
std::vector<Stat> default_stats();

/// Full-string parse of a finite double; the numeric-column criterion.
bool parse_number(std::string_view text, double& out);

/// Streaming mean/variance/extrema of one sample sequence (Welford's
/// one-pass update).  stddev is the sample standard deviation (n-1
/// denominator); with fewer than two samples stddev and cov are 0, so a
/// single replicate reports its value with zero dispersion rather than NaN.
class Welford {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double stddev() const;
  /// stddev/|mean|; 0 when the mean is 0 (the ratio is undefined there and
  /// the columns it guards are non-negative rates, where mean 0 implies
  /// every sample is 0).
  double cov() const;
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  double value(Stat s) const;

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Splits one CSV line into cells (no quoting — the scenario CSVs never
/// emit commas inside a cell).
std::vector<std::string> split_csv(std::string_view line);

/// Joins cells with ','; the inverse of split_csv, byte for byte.
std::string join_csv(const std::vector<std::string>& cells);

/// Grouped per-column statistics over CSV data rows sharing one header.
/// Rows are buffered; classification (numeric vs label) is monotone —
/// numeric until the first cell that does not parse — and grouping happens
/// when the summary is read back, so late demotions reshuffle nothing.
class ColumnSummary {
 public:
  explicit ColumnSummary(std::vector<std::string> columns);

  /// Buffers one data row.  Returns false after a diagnostic on `err`
  /// when the cell count does not match the header.
  bool add_row(std::vector<std::string> cells, std::ostream& err);

  std::size_t row_count() const { return rows_.size(); }

  /// Expanded column names, in header order: label columns keep their bare
  /// name, numeric columns become `<col>_<stat>` per requested statistic.
  std::vector<std::string> header(const std::vector<Stat>& stats) const;

  /// One summary row per distinct label tuple, in first-appearance order
  /// (which is the row feed order, so the output is deterministic).  Cells
  /// match header(stats); statistic values are formatted with "%g", the
  /// same spelling the scenarios' own CSV doubles use.
  std::vector<std::vector<std::string>> summarize(
      const std::vector<Stat>& stats) const;

 private:
  std::vector<std::string> columns_;
  std::vector<bool> numeric_;  // parallel to columns_, monotone demotion
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tfmcc::summary
