#include "sim/trace.hpp"

#include "analysis/summary.hpp"

namespace tfmcc {

bool RunTrace::is_commentary(std::string_view line) {
  return line.empty() || line.front() == '#' ||
         line.substr(0, 6) == "CHECK " || line.substr(0, 5) == "NOTE:";
}

RunTrace RunTrace::parse_text(std::string_view text) {
  RunTrace t;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line =
        text.substr(start, nl == std::string_view::npos
                               ? std::string_view::npos
                               : nl - start);
    if (nl == std::string_view::npos && line.empty()) break;
    if (!is_commentary(line)) {
      if (t.header.empty()) {
        t.header = line;
      } else {
        t.rows.push_back(summary::split_csv(line));
      }
    }
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return t;
}

}  // namespace tfmcc
