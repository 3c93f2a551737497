#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace tfmcc {

/// A scenario's CSV table in cells.  A line renders as its cells joined
/// with ','; no cell holds ',' or '\n'.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// The one sink a scenario reports through: its figure header, CHECK and
/// NOTE lines, and one CSV table whose first line is the header.  The
/// caller picks the renderer: text (`ScenarioOutput{os}`) writes every
/// report to `os` as the lines the CLI prints and the goldens record;
/// capture (`ScenarioOutput{}`) keeps only the table, in memory, for the
/// sweep's fold.  One sink serves one run on one thread.
class ScenarioOutput {
 public:
  ScenarioOutput() = default;
  explicit ScenarioOutput(std::ostream& os) : os_{&os} {}
  ScenarioOutput(const ScenarioOutput&) = delete;
  ScenarioOutput& operator=(const ScenarioOutput&) = delete;

  void figure_header(std::string_view figure, std::string_view title) {
    commentary({"# ", figure, ": ", title});
  }
  void check(bool ok, std::string_view what) {
    commentary({"CHECK ", ok ? "PASS" : "DIVERGES", ": ", what});
  }
  void note(std::string_view what) { commentary({"NOTE: ", what}); }

  /// One table line: the header if it is the first, else a row.
  void table_line(std::vector<std::string> cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (os_ != nullptr) *os_ << (i == 0 ? "" : ",") << cells[i];
      bytes_ += (i == 0 ? 0 : 1) + cells[i].size();
    }
    end_line();
    if (os_ != nullptr) return;
    if (table_.header.empty()) {
      table_.header = std::move(cells);
    } else {
      table_.rows.push_back(std::move(cells));
    }
  }

  /// Bytes of the text this run's output renders to: written by the text
  /// renderer, counted by the capture.
  std::uint64_t tellp() const { return bytes_; }

  /// The captured table, moved out (empty for the text renderer).
  CsvTable take_table() { return std::move(table_); }

 private:
  void commentary(std::initializer_list<std::string_view> parts) {
    for (std::string_view p : parts) {
      if (os_ != nullptr) *os_ << p;
      bytes_ += p.size();
    }
    end_line();
  }
  void end_line() {
    if (os_ != nullptr) *os_ << '\n';
    ++bytes_;
  }

  std::ostream* os_{nullptr};
  std::uint64_t bytes_{0};
  CsvTable table_;
};

/// Tiny CSV emitter used by the figure benches so every experiment reports
/// a machine-readable trace in addition to its human-readable summary.
class CsvWriter {
 public:
  CsvWriter(ScenarioOutput& out, std::initializer_list<std::string_view> header)
      : out_{out} {
    out_.table_line(std::vector<std::string>(header.begin(), header.end()));
  }

  /// One row.  A cell reads as `std::ostream << cell` with default flags
  /// prints it; every cell is formatted through the one reused stream.
  template <typename... Ts>
  void row(const Ts&... cells) {
    std::vector<std::string> line;
    line.reserve(sizeof...(Ts));
    (line.push_back(cell(cells)), ...);
    out_.table_line(std::move(line));
  }

 private:
  template <typename T>
  std::string cell(const T& v) {
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      return std::string{std::string_view{v}};
    } else {
      fmt_.str(std::string{});
      fmt_ << v;
      return fmt_.str();
    }
  }

  ScenarioOutput& out_;
  std::ostringstream fmt_;
};

}  // namespace tfmcc
