#pragma once

// Per-run trace: the in-memory currency between a scenario run and the
// sweep aggregator.
//
// A scenario emits text — figure-header/CHECK/NOTE commentary interleaved
// with one CSV table.  RunTrace::parse_text() strips the commentary and
// splits every data row into cells exactly once, in the worker thread that
// ran the scenario; the fold then moves the rows into its ColumnSummary
// without re-scanning for newlines or commas.
//
// Cells never contain ',' or '\n' (they are produced by splitting on those
// characters), so joining a row's cells with ',' reproduces the original
// line byte-for-byte.

#include <string>
#include <string_view>
#include <vector>

namespace tfmcc {

struct RunTrace {
  /// True for the text a scenario interleaves with its CSV trace: the
  /// figure header, CHECK/NOTE lines, and blank lines.  Everything else is
  /// CSV (header first, then rows).
  static bool is_commentary(std::string_view line);

  /// Parses a scenario's captured text output: commentary lines are
  /// dropped, the first remaining line becomes the header, the rest the
  /// data rows.  An output with no CSV at all yields an empty trace.
  /// Never fails: any text is some trace.
  static RunTrace parse_text(std::string_view text);

  /// The header line as emitted; empty only when the output had no CSV
  /// (a blank line is commentary, so a real header is never empty).
  std::string header;
  /// Data rows (the header is not a row), split into cells.
  std::vector<std::vector<std::string>> rows;
};

}  // namespace tfmcc
