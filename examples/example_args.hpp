#pragma once

// Strict positional-argument parsing shared by the examples: a malformed,
// out-of-range or surplus argument prints "error: ..." and exits 2, the
// same contract as tfmcc_sim's option parser.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace tfmcc::examples {

/// Exits 2 with a usage line when more than `max_args` arguments are given.
inline void check_arg_count(int argc, char** argv, int max_args,
                            const char* usage) {
  if (argc - 1 <= max_args) return;
  std::fprintf(stderr, "error: unexpected argument '%s'\nusage: %s %s\n",
               argv[max_args + 1], argv[0], usage);
  std::exit(2);
}

/// argv[i] as a decimal integer in [lo, hi], or `dflt` when absent.  Signs,
/// trailing characters and out-of-range values exit 2 after a diagnostic.
inline std::uint64_t arg_or(int argc, char** argv, int i, const char* name,
                            std::uint64_t dflt, std::uint64_t lo = 0,
                            std::uint64_t hi = UINT64_MAX) {
  if (i >= argc) return dflt;
  const std::string_view text = argv[i];
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < lo ||
      v > hi) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%llu, %llu], got '%s'\n",
                 name, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), argv[i]);
    std::exit(2);
  }
  return v;
}

}  // namespace tfmcc::examples
