#pragma once

// Scenario registry: the unified driver layer behind `tfmcc_sim`.
//
// Every paper-figure experiment registers itself under a stable name via
// TFMCC_SCENARIO; the `tfmcc_sim` binary links all of them and dispatches by
// name, so adding a workload is one registration instead of a new binary.
//
// Scenarios declare their tunable knobs as typed ParamSpecs in the
// registration macro; the driver surfaces them in `--list`, validates
// `--set key=value` overrides against them before running, and the scenario
// reads them back through ScenarioOptions::param_or<T>().

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/sim_time.hpp"

namespace tfmcc {

class ScenarioOutput;

/// Declared type of a scenario parameter; drives the pre-run validation of
/// `--set` overrides and the rendering of defaults in `--list`.
enum class ParamType { kInt64, kUint64, kDouble, kBool, kString };

/// One declared scenario knob: its name, type, printable default, a
/// one-line description for `--list`, and an optional lower bound enforced
/// by pre-run validation (scenarios index arrays and drive loops with these
/// values, so "well-typed" alone is not "safe").
struct ParamSpec {
  std::string name;
  ParamType type{ParamType::kDouble};
  std::string default_value;
  std::string description;
  std::optional<double> min;
};

using ParamSpecList = std::vector<ParamSpec>;

std::string_view param_type_name(ParamType t);

/// ParamSpec builders used inside TFMCC_SCENARIO registrations; the overload
/// picks the declared type from the default's C++ type.  `min` is the lowest
/// accepted override value (inclusive).
ParamSpec param(std::string name, std::int64_t dflt, std::string description,
                std::optional<double> min = std::nullopt);
ParamSpec param(std::string name, int dflt, std::string description,
                std::optional<double> min = std::nullopt);
ParamSpec param(std::string name, std::uint64_t dflt, std::string description,
                std::optional<double> min = std::nullopt);
ParamSpec param(std::string name, double dflt, std::string description,
                std::optional<double> min = std::nullopt);
ParamSpec param(std::string name, bool dflt, std::string description);
ParamSpec param(std::string name, const char* dflt, std::string description);

/// Options handed to every scenario, parsed from the command line.  Absent
/// options fall back to the per-scenario paper defaults via *_or(), so a bare
/// invocation reproduces the figure exactly as published.
struct ScenarioOptions {
  std::optional<SimTime> duration;
  std::optional<std::uint64_t> seed;
  /// `--output <path>`: where the CLI's text renderer writes instead of
  /// stdout.
  std::optional<std::string> output_path;

  SimTime duration_or(SimTime dflt) const { return duration.value_or(dflt); }
  std::uint64_t seed_or(std::uint64_t dflt) const {
    return seed.value_or(dflt);
  }

  /// The scenario's output sink (util/csv.hpp): everything a scenario
  /// reports (figure header, CSV trace, CHECK/NOTE lines) goes through it.
  /// A text renderer on std::cout unless the caller sets another sink: the
  /// CLI renders text to `--output`, and a sweep gives every run its own
  /// capture, which hands the run's CSV rows to the fold in memory.
  ScenarioOutput& out() const;
  void set_output(ScenarioOutput& sink) { out_ = &sink; }

  /// Record one `--set key=value` override (last write wins).
  void set_param(std::string key, std::string value);
  bool has_param(std::string_view key) const;
  const std::map<std::string, std::string, std::less<>>& params() const {
    return params_;
  }

  /// Typed access to an override: the declared default when the key is
  /// absent, the coerced value when present and well-formed, and the default
  /// again when the value does not coerce (pre-run validation against the
  /// scenario's ParamSpecs reports that case before the scenario runs).
  /// Supported T: bool, int, std::int64_t, std::uint64_t, double,
  /// std::string.
  template <typename T>
  T param_or(std::string_view name, T dflt) const;
  std::string param_or(std::string_view name, const char* dflt) const;

  /// Driver-internal: the registry binds the scenario's declared ParamSpecs
  /// before invoking it, so a param_or() read of a key the scenario never
  /// declared (invisible to `--list`/`--set` validation, i.e. a latent typo)
  /// is diagnosed instead of silently returning the fallback.  `specs` must
  /// outlive this object; nullptr unbinds.
  void bind_specs(const ParamSpecList* specs) { specs_ = specs; }

 private:
  /// Asserts (debug) / warns on stderr (release) when `name` is not among
  /// the bound ParamSpecs; no-op when no specs are bound.
  void check_declared(std::string_view name) const;

  std::map<std::string, std::string, std::less<>> params_;
  const ParamSpecList* specs_{nullptr};
  ScenarioOutput* out_{nullptr};
};

// The supported param_or instantiations live in scenario_registry.cpp; the
// declarations here make any unsupported T a link-time error instead of an
// implicit-instantiation failure.
template <>
bool ScenarioOptions::param_or<bool>(std::string_view, bool) const;
template <>
int ScenarioOptions::param_or<int>(std::string_view, int) const;
template <>
std::int64_t ScenarioOptions::param_or<std::int64_t>(std::string_view,
                                                     std::int64_t) const;
template <>
std::uint64_t ScenarioOptions::param_or<std::uint64_t>(std::string_view,
                                                       std::uint64_t) const;
template <>
double ScenarioOptions::param_or<double>(std::string_view, double) const;
template <>
std::string ScenarioOptions::param_or<std::string>(std::string_view,
                                                   std::string) const;

inline std::string ScenarioOptions::param_or(std::string_view name,
                                             const char* dflt) const {
  return param_or<std::string>(name, std::string{dflt});
}

/// Seed for replicate `rep` of a run whose base seed is `base`: replicate 0
/// is the base itself (so a single replicate reproduces the plain run
/// byte-for-byte), later replicates get a splitmix64-mixed stream.  A pure
/// function of (base, rep) — independent of thread count, completion order,
/// and which grid point the replicate belongs to — so replicated sweeps are
/// deterministic and individual replicates can be re-run standalone with
/// `--seed <derived>`.
std::uint64_t derive_replicate_seed(std::uint64_t base, std::uint64_t rep);

using ScenarioFn = int (*)(const ScenarioOptions&);

struct Scenario {
  std::string name;
  std::string description;
  ScenarioFn fn{nullptr};
  ParamSpecList params;

  const ParamSpec* find_param(std::string_view pname) const;
};

/// Checks every `--set` override against the scenario's declared ParamSpecs:
/// unknown keys and values that do not coerce to the declared type are
/// diagnosed on `err`.  Returns true when all overrides are valid.
bool validate_scenario_params(const Scenario& scenario,
                              const ScenarioOptions& opts, std::ostream& err);

class ScenarioRegistry {
 public:
  /// The process-wide registry populated by TFMCC_SCENARIO registrations.
  static ScenarioRegistry& instance();

  /// Returns true when newly added; a duplicate name keeps the first
  /// registration and returns false.
  bool add(std::string name, std::string description, ScenarioFn fn,
           ParamSpecList params = {});

  /// Nullptr when no scenario is registered under `name`.
  const Scenario* find(std::string_view name) const;

  std::vector<std::string> names() const;
  std::size_t size() const { return scenarios_.size(); }

  /// Runs the named scenario and returns its exit code, or -1 (after writing
  /// a diagnostic to `err`) when the name is unknown or a `--set` override
  /// fails validation against the scenario's declared parameters.
  int run(std::string_view name, const ScenarioOptions& opts,
          std::ostream& err) const;

 private:
  std::map<std::string, Scenario, std::less<>> scenarios_;
};

/// Parses `--duration <seconds>` / `--seed <n>` / `--set key=value` /
/// `--output <path>` flags.  Returns false and writes a diagnostic to `err`
/// on unknown flags or malformed values.
bool parse_scenario_options(int argc, char** argv, ScenarioOptions& opts,
                            std::ostream& err);

/// `--output` plumbing shared by the single-run and sweep CLI tails: open
/// `path` for writing / flush and close it, diagnosing failures on `err`.
/// Both return false after a diagnostic.
bool open_output_file(const std::string& path, std::ofstream& file,
                      std::ostream& err);
bool finish_output_file(const std::string& path, std::ofstream& file,
                        std::ostream& err);

/// Single-run CLI tail of `tfmcc_sim`: honours opts.output_path (opening
/// the file and rendering the scenario's output there as text), then
/// dispatches through the registry.  Returns the scenario's exit code, or
/// -1 after a diagnostic on `err`.
int run_scenario_cli(std::string_view name, ScenarioOptions& opts,
                     std::ostream& err);

}  // namespace tfmcc

/// Defines and registers a scenario function; optional trailing arguments
/// declare its tunable parameters:
///   TFMCC_SCENARIO(fig09_single_bottleneck, "Figure 9: ...",
///                  tfmcc::param("n_tcp", 15, "competing TCP flows")) {
///     const SimTime T = opts.duration_or(200_sec);
///     const int n_tcp = opts.param_or("n_tcp", 15);
///     ...
///     return 0;
///   }
#define TFMCC_SCENARIO(ident, desc, ...)                                   \
  static int tfmcc_scenario_##ident(const ::tfmcc::ScenarioOptions&);      \
  [[maybe_unused]] static const bool tfmcc_scenario_reg_##ident =          \
      ::tfmcc::ScenarioRegistry::instance().add(                           \
          #ident, desc, &tfmcc_scenario_##ident,                           \
          ::tfmcc::ParamSpecList{__VA_ARGS__});                            \
  static int tfmcc_scenario_##ident(                                       \
      [[maybe_unused]] const ::tfmcc::ScenarioOptions& opts)
