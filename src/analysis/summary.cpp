#include "analysis/summary.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <utility>

namespace tfmcc::summary {

namespace {

constexpr Stat kAllStats[] = {Stat::kMean, Stat::kStddev, Stat::kCov,
                              Stat::kMin, Stat::kMax};

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string_view stat_name(Stat s) {
  switch (s) {
    case Stat::kMean:
      return "mean";
    case Stat::kStddev:
      return "stddev";
    case Stat::kCov:
      return "cov";
    case Stat::kMin:
      return "min";
    case Stat::kMax:
      return "max";
  }
  return "?";
}

bool parse_stats(std::string_view text, std::vector<Stat>& out,
                 std::ostream& err) {
  out.clear();
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string_view name = text.substr(start, comma - start);
    bool known = false;
    for (Stat s : kAllStats) {
      if (name == stat_name(s)) {
        for (Stat seen : out) {
          if (seen == s) {
            err << "error: duplicate statistic '" << name
                << "' in --stats list\n";
            return false;
          }
        }
        out.push_back(s);
        known = true;
        break;
      }
    }
    if (!known) {
      err << "error: unknown statistic '" << name
          << "' in --stats list (expected a comma-separated subset of "
             "mean,stddev,cov,min,max)\n";
      return false;
    }
    if (comma == std::string_view::npos) return true;
    start = comma + 1;
  }
}

std::vector<Stat> default_stats() { return {Stat::kMean, Stat::kCov}; }

bool parse_number(std::string_view text, double& out) {
  std::string buf{text};
  char* end = nullptr;
  out = std::strtod(buf.c_str(), &end);
  return !buf.empty() && end == buf.c_str() + buf.size() &&
         std::isfinite(out);
}

void Welford::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Welford::stddev() const {
  if (n_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_ - 1));
}

double Welford::cov() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return stddev() / std::fabs(m);
}

double Welford::value(Stat s) const {
  switch (s) {
    case Stat::kMean:
      return mean();
    case Stat::kStddev:
      return stddev();
    case Stat::kCov:
      return cov();
    case Stat::kMin:
      return min();
    case Stat::kMax:
      return max();
  }
  return 0.0;
}

std::string join_csv(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) line += ',';
    line += cells[i];
  }
  return line;
}

std::vector<std::string> split_csv(std::string_view line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    cells.emplace_back(line.substr(start, comma - start));
    if (comma == std::string_view::npos) return cells;
    start = comma + 1;
  }
}

ColumnSummary::ColumnSummary(std::vector<std::string> columns)
    : columns_{std::move(columns)}, numeric_(columns_.size(), true) {}

bool ColumnSummary::add_row(std::vector<std::string> cells,
                            std::ostream& err) {
  if (cells.size() != columns_.size()) {
    err << "error: CSV row has " << cells.size() << " cells but the header '"
        << (columns_.empty() ? std::string{} : columns_.front())
        << ",...' declares " << columns_.size() << " columns\n";
    return false;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    double v = 0.0;
    if (numeric_[i] && !parse_number(cells[i], v)) numeric_[i] = false;
  }
  rows_.push_back(std::move(cells));
  return true;
}

std::vector<std::string> ColumnSummary::header(
    const std::vector<Stat>& stats) const {
  std::vector<std::string> out;
  out.reserve(columns_.size() * stats.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (numeric_[i]) {
      for (Stat s : stats) {
        out.push_back(columns_[i] + '_' + std::string{stat_name(s)});
      }
    } else {
      out.push_back(columns_[i]);
    }
  }
  return out;
}

std::vector<std::vector<std::string>> ColumnSummary::summarize(
    const std::vector<Stat>& stats) const {
  struct Group {
    std::vector<std::string> labels;  // label-column cells, in column order
    std::vector<Welford> acc;         // one per numeric column
  };
  std::vector<Group> groups;
  std::map<std::vector<std::string>, std::size_t> index;

  std::size_t n_numeric = 0;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (numeric_[i]) ++n_numeric;
  }
  for (const auto& row : rows_) {
    std::vector<std::string> key;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!numeric_[i]) key.push_back(row[i]);
    }
    auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{std::move(key), std::vector<Welford>(n_numeric)});
    }
    Group& g = groups[it->second];
    std::size_t j = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!numeric_[i]) continue;
      double v = 0.0;
      // Every cell of a still-numeric column parsed during add_row.
      if (parse_number(row[i], v)) g.acc[j].add(v);
      ++j;
    }
  }

  std::vector<std::vector<std::string>> out;
  out.reserve(groups.size());
  for (const Group& g : groups) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size() * stats.size());
    std::size_t label_at = 0, acc_at = 0;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (numeric_[i]) {
        for (Stat s : stats) {
          cells.push_back(format_value(g.acc[acc_at].value(s)));
        }
        ++acc_at;
      } else {
        cells.push_back(g.labels[label_at]);
        ++label_at;
      }
    }
    out.push_back(std::move(cells));
  }
  return out;
}

}  // namespace tfmcc::summary
