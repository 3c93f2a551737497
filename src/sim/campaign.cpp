#include "sim/campaign.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "sim/sweep_state.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace tfmcc {

double campaign_backoff_seconds(int relaunch, double base_s, double max_s) {
  if (relaunch < 0) relaunch = 0;
  // ldexp with a clamped exponent: 2^60 * any sane base is already far
  // past any sane cap, and never overflows.
  const double wait = std::ldexp(base_s, std::min(relaunch, 60));
  return std::min(wait, max_s);
}

std::string self_executable_path() {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
#else
  return {};
#endif
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// Set by the SIGTERM/SIGINT handler; the supervisor loop polls it,
/// forwards SIGTERM to the children (which flush a final checkpoint), and
/// exits with every shard resumable.
volatile std::sig_atomic_t g_campaign_signal = 0;

void campaign_signal_handler(int sig) { g_campaign_signal = sig; }

struct ScopedCampaignSignals {
  struct sigaction old_term {};
  struct sigaction old_int {};
  ScopedCampaignSignals() {
    g_campaign_signal = 0;
    struct sigaction sa {};
    sa.sa_handler = campaign_signal_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, &old_term);
    sigaction(SIGINT, &sa, &old_int);
  }
  ~ScopedCampaignSignals() {
    sigaction(SIGTERM, &old_term, nullptr);
    sigaction(SIGINT, &old_int, nullptr);
  }
};

using Clock = std::chrono::steady_clock;

struct ShardProc {
  enum class State { kPending, kBackoff, kRunning, kDone, kFailed };
  int index{0};
  State state{State::kPending};
  pid_t pid{-1};
  /// Launches that did not finish cleanly (crashes + killed stragglers).
  int relaunches{0};
  Clock::time_point next_launch{};   // meaningful in kBackoff
  Clock::time_point last_advance{};  // meaningful in kRunning
  CheckpointProgress progress{};     // last observed checkpoint progress
  bool have_progress{false};
  std::string ckpt_path;
  std::string part_path;
  std::string log_path;
};

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended with wait status " + std::to_string(status);
}

bool file_exists(const std::string& path) {
  return access(path.c_str(), F_OK) == 0;
}

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", s);
  return buf;
}

}  // namespace

int run_campaign(const Scenario& scenario, const CampaignOptions& opts,
                 std::ostream& err) {
  if (opts.shards < 2 || opts.shards > 512) {
    err << "error: --shards expects between 2 and 512 (a single-process "
           "sweep does not need a supervisor)\n";
    return 2;
  }
  if (opts.jobs < 1 || opts.jobs > 1024) {
    err << "error: --jobs expects an integer between 1 and 1024\n";
    return 2;
  }
  if (opts.max_retries < 0 || opts.max_retries > 1000) {
    err << "error: --max-retries expects an integer between 0 and 1000\n";
    return 2;
  }
  if (opts.checkpoint_every < 1) {
    err << "error: --checkpoint-every must be at least 1\n";
    return 2;
  }
  if (!(opts.stall_timeout_s > 0.0) || !(opts.backoff_base_s > 0.0) ||
      !(opts.backoff_max_s > 0.0) || !(opts.poll_interval_s > 0.0)) {
    err << "error: campaign timeouts and intervals must be positive\n";
    return 2;
  }
  if (opts.sweep.axes.empty()) {
    err << "error: campaign needs at least one --sweep key=... axis\n";
    return 2;
  }
  for (std::size_t a = 0; a < opts.sweep.axes.size(); ++a) {
    const SweepAxis& axis = opts.sweep.axes[a];
    if (axis.values.empty()) {
      err << "error: --sweep axis '" << axis.key << "' has no values\n";
      return 2;
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (opts.sweep.axes[b].key == axis.key) {
        err << "error: duplicate --sweep axis for key '" << axis.key
            << "' (combine the values into one axis)\n";
        return 2;
      }
    }
  }
  if (opts.sweep.replicate < 1) {
    err << "error: --replicate must be at least 1\n";
    return 2;
  }

  std::string exec_path =
      opts.exec_path.empty() ? self_executable_path() : opts.exec_path;
  if (exec_path.empty()) {
    err << "error: cannot resolve the running executable's path; pass "
           "--exec <path>\n";
    return 2;
  }
  if (access(exec_path.c_str(), X_OK) != 0) {
    err << "error: shard executable '" << exec_path
        << "' is missing or not executable\n";
    return 2;
  }

  // Validate every grid point up front, exactly as run_sweep would: a bad
  // axis value must be one clean diagnostic here, not N children crash-
  // looping through their retry budgets.
  const auto grid = expand_grid(opts.sweep.axes);
  if (grid.size() > 1'000'000) {
    err << "error: sweep grid exceeds 1000000 points\n";
    return 2;
  }
  for (const auto& point : grid) {
    ScenarioOptions popts = opts.sweep.base;
    for (std::size_t a = 0; a < opts.sweep.axes.size(); ++a) {
      popts.set_param(opts.sweep.axes[a].key, point[a]);
    }
    if (!validate_scenario_params(scenario, popts, err)) {
      err << "  (sweep point " << point_label(opts.sweep.axes, point)
          << ")\n";
      return 2;
    }
  }

  const std::string dir =
      opts.dir.empty() ? "campaign-" + scenario.name : opts.dir;
  if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    err << "error: cannot create campaign directory '" << dir
        << "': " << std::strerror(errno) << '\n';
    return 2;
  }

  // Point ownership, via the same rule the shards apply.
  std::vector<int> owner(grid.size(), 0);
  {
    SweepOptions shard_sweep = opts.sweep;
    shard_sweep.shard_count = opts.shards;
    for (int i = 0; i < opts.shards; ++i) {
      shard_sweep.shard_index = i;
      const SweepManifest m = SweepManifest::from(scenario, shard_sweep);
      for (std::size_t p = 0; p < grid.size(); ++p) {
        if (shard_owns_point(m, p)) owner[p] = i;
      }
    }
  }

  std::vector<ShardProc> shards(static_cast<std::size_t>(opts.shards));
  for (int i = 0; i < opts.shards; ++i) {
    ShardProc& s = shards[static_cast<std::size_t>(i)];
    s.index = i;
    const std::string stem = dir + "/shard-" + std::to_string(i);
    s.ckpt_path = stem + ".ckpt";
    s.part_path = stem + ".part";
    s.log_path = stem + ".log";
  }

  auto shard_failed = [&](ShardProc& s, const std::string& why,
                          bool retryable) {
    s.pid = -1;
    s.have_progress = false;
    ++s.relaunches;
    if (!retryable) {
      s.state = ShardProc::State::kFailed;
      err << "error: campaign: shard " << s.index << " " << why
          << "; not retryable\n";
      return;
    }
    if (s.relaunches > opts.max_retries) {
      s.state = ShardProc::State::kFailed;
      err << "error: campaign: shard " << s.index << " " << why
          << "; retry cap (" << opts.max_retries << ") exhausted\n";
      return;
    }
    const double wait = campaign_backoff_seconds(
        s.relaunches - 1, opts.backoff_base_s, opts.backoff_max_s);
    s.state = ShardProc::State::kBackoff;
    s.next_launch =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(wait));
    err << "campaign: shard " << s.index << " " << why << "; relaunching in "
        << format_seconds(wait) << "s (retry " << s.relaunches << "/"
        << opts.max_retries << ")\n";
  };

  auto launch = [&](ShardProc& s) {
    const bool resuming = file_exists(s.ckpt_path);
    std::vector<std::string> args;
    args.push_back(exec_path);
    args.push_back("sweep");
    args.push_back(scenario.name);
    args.insert(args.end(), opts.child_args.begin(), opts.child_args.end());
    args.push_back("--shard");
    args.push_back(std::to_string(s.index) + "/" +
                   std::to_string(opts.shards));
    args.push_back("--jobs");
    args.push_back(std::to_string(opts.jobs));
    args.push_back("--checkpoint");
    args.push_back(s.ckpt_path);
    args.push_back("--checkpoint-every");
    args.push_back(std::to_string(opts.checkpoint_every));
    args.push_back("--output");
    args.push_back(s.part_path);
    if (resuming) {
      args.push_back("--resume");
      args.push_back(s.ckpt_path);
    }
    // argv built before fork: the child only touches async-signal-safe
    // calls (open/dup2/execv/_exit) between fork and exec.
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
      shard_failed(s, std::string("fork failed: ") + std::strerror(errno),
                   true);
      return;
    }
    if (pid == 0) {
      const int fd =
          open(s.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO) close(fd);
      }
      execv(exec_path.c_str(), argv.data());
      _exit(127);
    }
    s.pid = pid;
    s.state = ShardProc::State::kRunning;
    s.last_advance = Clock::now();
    err << "campaign: shard " << s.index << " launched (attempt "
        << (s.relaunches + 1) << (resuming ? ", resuming from checkpoint)"
                                           : ")")
        << '\n';
  };

  ScopedCampaignSignals signals;
  const auto poll = std::chrono::duration<double>(opts.poll_interval_s);
  for (;;) {
    if (g_campaign_signal != 0) break;
    bool all_settled = true;
    const auto now = Clock::now();
    for (auto& s : shards) {
      switch (s.state) {
        case ShardProc::State::kPending:
          launch(s);
          all_settled = false;
          break;
        case ShardProc::State::kBackoff:
          if (now >= s.next_launch) launch(s);
          all_settled = false;
          break;
        case ShardProc::State::kRunning: {
          all_settled = false;
          int status = 0;
          const pid_t reaped = waitpid(s.pid, &status, WNOHANG);
          if (reaped == s.pid) {
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
              if (!file_exists(s.part_path)) {
                shard_failed(s, "exited cleanly without writing its partial",
                             true);
              } else {
                s.pid = -1;
                s.state = ShardProc::State::kDone;
                err << "campaign: shard " << s.index << " complete\n";
              }
            } else if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
              // run_sweep reserves 2 for configuration/usage errors; a
              // relaunch re-runs the identical command line and cannot
              // succeed where this one failed.
              shard_failed(s, describe_exit(status) + " (see " + s.log_path +
                                  "; configuration error)",
                           false);
            } else {
              shard_failed(s, describe_exit(status), true);
            }
            break;
          }
          // Still running: poll the checkpoint's last record.  Any
          // heartbeat or fold-frontier change counts as advance.
          CheckpointProgress p;
          std::string perr;
          if (read_checkpoint_progress(s.ckpt_path, p, perr) &&
              (!s.have_progress || p.heartbeat != s.progress.heartbeat ||
               p.folded_tasks != s.progress.folded_tasks)) {
            s.progress = p;
            s.have_progress = true;
            s.last_advance = now;
          }
          const double idle =
              std::chrono::duration<double>(now - s.last_advance).count();
          if (idle > opts.stall_timeout_s) {
            kill(s.pid, SIGKILL);
            waitpid(s.pid, &status, 0);
            shard_failed(s,
                         "stalled (no checkpoint progress for " +
                             format_seconds(idle) + "s); killed",
                         true);
          }
          break;
        }
        case ShardProc::State::kDone:
        case ShardProc::State::kFailed:
          break;
      }
    }
    if (all_settled || g_campaign_signal != 0) break;
    std::this_thread::sleep_for(poll);
  }

  if (g_campaign_signal != 0) {
    // Propagate a graceful stop: the children trap SIGTERM while
    // checkpointing and flush a final checkpoint before exiting.
    for (auto& s : shards) {
      if (s.state == ShardProc::State::kRunning && s.pid > 0) {
        kill(s.pid, SIGTERM);
      }
    }
    for (auto& s : shards) {
      if (s.state == ShardProc::State::kRunning && s.pid > 0) {
        int status = 0;
        waitpid(s.pid, &status, 0);
        s.pid = -1;
      }
    }
    err << "campaign: interrupted; shard checkpoints preserved in '" << dir
        << "' — rerun the same campaign command to resume\n";
    return 1;
  }

  bool any_shard_failed = false;
  for (const auto& s : shards) {
    if (s.state == ShardProc::State::kFailed) any_shard_failed = true;
  }
  if (any_shard_failed) {
    err << "error: campaign: shard(s)";
    for (const auto& s : shards) {
      if (s.state == ShardProc::State::kFailed) err << ' ' << s.index;
    }
    err << " failed permanently; missing grid points:\n";
    for (std::size_t p = 0; p < grid.size(); ++p) {
      if (shards[static_cast<std::size_t>(owner[p])].state ==
          ShardProc::State::kFailed) {
        err << "  " << point_label(opts.sweep.axes, grid[p]) << '\n';
      }
    }
    err << "surviving partials and checkpoints preserved in '" << dir
        << "'\n";
    return 2;
  }

  err << "campaign: all " << opts.shards << " shards complete; merging\n";
  std::vector<std::string> margs;
  if (!opts.output_path.empty()) {
    margs.push_back("--output");
    margs.push_back(opts.output_path);
  }
  for (const auto& s : shards) margs.push_back(s.part_path);
  std::vector<char*> margv;
  margv.reserve(margs.size());
  for (const auto& a : margs) margv.push_back(const_cast<char*>(a.c_str()));
  const int mrc =
      merge_main(static_cast<int>(margv.size()), margv.data(), err);
  if (mrc != 0) {
    err << "error: campaign: merge failed; partials preserved in '" << dir
        << "'\n";
    return 2;
  }
  return 0;
}

#else  // !POSIX

int run_campaign(const Scenario&, const CampaignOptions&, std::ostream& err) {
  err << "error: `tfmcc_sim campaign` requires a POSIX platform "
         "(fork/exec supervision)\n";
  return 2;
}

#endif

int campaign_main(int argc, char** argv, std::ostream& err) {
  if (argc < 1 || std::string_view{argv[0]}.substr(0, 2) == "--") {
    err << "usage: tfmcc_sim campaign <scenario> --sweep key=v1,v2,... "
           "[--shards N] [--jobs N] [--dir <path>] [--stall-timeout S] "
           "[--max-retries K] [--backoff-base S] [--backoff-max S] "
           "[--poll-interval S] [--exec <path>] [--checkpoint-every N] "
           "[--replicate N] [--stats mean,stddev,cov,min,max] "
           "[--duration <s>] [--seed <n>] [--set key=value]... "
           "[--output <path>]\n";
    return 2;
  }
  const std::string_view name = argv[0];
  const Scenario* scenario = ScenarioRegistry::instance().find(name);
  if (scenario == nullptr) {
    err << "error: unknown scenario '" << name << "'\nknown scenarios:\n";
    for (const auto& n : ScenarioRegistry::instance().names()) {
      err << "  " << n << '\n';
    }
    return 2;
  }

  CampaignOptions opts;
  bool stats_given = false;
  std::vector<char*> passthrough;
  auto parse_int = [&](std::string_view flag, const char* text, long lo,
                       long hi, long& value) {
    char* end = nullptr;
    value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || value < lo || value > hi) {
      err << "error: " << flag << " expects an integer between " << lo
          << " and " << hi << '\n';
      return false;
    }
    return true;
  };
  auto parse_seconds = [&](std::string_view flag, const char* text,
                           double& value) {
    char* end = nullptr;
    value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(value > 0.0) || value > 1e6) {
      err << "error: " << flag << " expects seconds in (0, 1e6]\n";
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    auto need = [&] {
      if (!has_value) err << "error: " << arg << " expects a value\n";
      return has_value;
    };
    long lv = 0;
    double dv = 0.0;
    if (arg == "--shards") {
      if (!need() || !parse_int(arg, argv[i + 1], 2, 512, lv)) return 2;
      opts.shards = static_cast<int>(lv);
      ++i;
    } else if (arg == "--jobs") {
      if (!need() || !parse_int(arg, argv[i + 1], 1, 1024, lv)) return 2;
      opts.jobs = static_cast<int>(lv);
      ++i;
    } else if (arg == "--max-retries") {
      if (!need() || !parse_int(arg, argv[i + 1], 0, 1000, lv)) return 2;
      opts.max_retries = static_cast<int>(lv);
      ++i;
    } else if (arg == "--checkpoint-every") {
      if (!need() || !parse_int(arg, argv[i + 1], 1, 1'000'000, lv)) {
        return 2;
      }
      opts.checkpoint_every = static_cast<int>(lv);
      ++i;
    } else if (arg == "--stall-timeout") {
      if (!need() || !parse_seconds(arg, argv[i + 1], dv)) return 2;
      opts.stall_timeout_s = dv;
      ++i;
    } else if (arg == "--backoff-base") {
      if (!need() || !parse_seconds(arg, argv[i + 1], dv)) return 2;
      opts.backoff_base_s = dv;
      ++i;
    } else if (arg == "--backoff-max") {
      if (!need() || !parse_seconds(arg, argv[i + 1], dv)) return 2;
      opts.backoff_max_s = dv;
      ++i;
    } else if (arg == "--poll-interval") {
      if (!need() || !parse_seconds(arg, argv[i + 1], dv)) return 2;
      opts.poll_interval_s = dv;
      ++i;
    } else if (arg == "--dir") {
      if (!need()) return 2;
      opts.dir = argv[i + 1];
      ++i;
    } else if (arg == "--exec") {
      if (!need()) return 2;
      opts.exec_path = argv[i + 1];
      ++i;
    } else if (arg == "--output") {
      if (!need()) return 2;
      opts.output_path = argv[i + 1];
      ++i;
    } else if (arg == "--sweep") {
      if (!need()) return 2;
      const std::string_view spec_text = argv[i + 1];
      const std::size_t eq = spec_text.find('=');
      const ParamSpec* spec =
          eq == std::string_view::npos
              ? nullptr
              : scenario->find_param(spec_text.substr(0, eq));
      SweepAxis axis;
      if (!parse_sweep_axis(spec_text, spec, axis, err)) return 2;
      opts.sweep.axes.push_back(std::move(axis));
      opts.child_args.emplace_back("--sweep");
      opts.child_args.emplace_back(argv[i + 1]);
      ++i;
    } else if (arg == "--replicate") {
      if (!need() || !parse_int(arg, argv[i + 1], 1, 100'000, lv)) return 2;
      opts.sweep.replicate = static_cast<int>(lv);
      opts.child_args.emplace_back("--replicate");
      opts.child_args.emplace_back(argv[i + 1]);
      ++i;
    } else if (arg == "--stats") {
      if (!need() ||
          !summary::parse_stats(argv[i + 1], opts.sweep.stats, err)) {
        return 2;
      }
      stats_given = true;
      opts.child_args.emplace_back("--stats");
      opts.child_args.emplace_back(argv[i + 1]);
      ++i;
    } else if (arg == "--shard" || arg == "--checkpoint" ||
               arg == "--resume" || arg == "--progress" ||
               arg == "--max-point-failures") {
      err << "error: " << arg << " is managed per shard by the campaign "
          << "supervisor\n";
      return 2;
    } else {
      // Single-run flags (--duration/--seed/--set): validated locally and
      // forwarded verbatim — no value is re-serialized, so the children's
      // manifests cannot drift from what was validated here.
      passthrough.push_back(argv[i]);
      opts.child_args.emplace_back(argv[i]);
      if ((arg == "--duration" || arg == "--seed" || arg == "--set") &&
          has_value) {
        passthrough.push_back(argv[i + 1]);
        opts.child_args.emplace_back(argv[i + 1]);
        ++i;
      }
    }
  }
  if (stats_given && opts.sweep.replicate == 1) {
    err << "error: --stats requires --replicate greater than 1\n";
    return 2;
  }
  if (!parse_scenario_options(static_cast<int>(passthrough.size()),
                              passthrough.data(), opts.sweep.base, err)) {
    return 2;
  }
  return run_campaign(*scenario, opts, err);
}

}  // namespace tfmcc
