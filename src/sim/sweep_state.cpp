#include "sim/sweep_state.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace tfmcc {

namespace {

constexpr std::string_view kCheckpointMagic = "TFMCC-SWEEP-CKPT";
constexpr std::string_view kPartialMagic = "TFMCC-SWEEP-PART";
// Version 3 is the append-only log of finished points; files of older
// versions are refused, not read.
constexpr int kFormatVersion = 3;
// Same cap run_sweep puts on grid points times replicates.
constexpr std::size_t kMaxTasks = 1'000'000;

std::string stats_spelling(const std::vector<summary::Stat>& stats) {
  std::string s;
  for (summary::Stat st : stats) {
    if (!s.empty()) s += ',';
    s += summary::stat_name(st);
  }
  return s;
}

bool expect_token(std::istream& is, std::string_view want) {
  std::string tok;
  return (is >> tok) && tok == want;
}

/// Length-prefixed string IO ("<len>:<bytes>", no quoting or escaping).
/// read_str reads from an in-memory stream and returns false when the
/// length exceeds what is left of it, before allocating anything.
void write_str(std::ostream& os, std::string_view s) {
  os << s.size() << ':' << s;
}

bool read_str(std::istream& is, std::string& out) {
  std::size_t len = 0;
  char sep = 0;
  if (!(is >> len) || !is.get(sep) || sep != ':') return false;
  const std::streamsize left = is.rdbuf()->in_avail();
  if (len > static_cast<std::size_t>(std::max<std::streamsize>(left, 0))) {
    return false;
  }
  out.resize(len);
  is.read(out.data(), static_cast<std::streamsize>(len));
  return static_cast<std::size_t>(is.gcount()) == len;
}

/// True when nothing but whitespace is left in `is`.
bool at_end(std::istream& is) {
  is >> std::ws;
  return is.peek() == std::istream::traits_type::eof();
}

/// Tasks the manifest's shard owns: round-robin point ownership times the
/// replicate count.
std::uint64_t owned_task_count(const SweepManifest& m) {
  const std::size_t n = m.n_points();
  const std::size_t c = static_cast<std::size_t>(m.shard_count);
  const std::size_t i = static_cast<std::size_t>(m.shard_index);
  const std::size_t owned_points = n > i ? (n - 1 - i) / c + 1 : 0;
  return static_cast<std::uint64_t>(owned_points) *
         static_cast<std::uint64_t>(m.replicate);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a-64 of `bytes`, continuing from `h` (the offset basis for a fresh
/// hash, or an earlier hash to chain onto it).
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h = kFnvBasis) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A frame's checksum: the payload's FNV-1a-64 continued from `seed`, as
/// 16 hex digits.
std::string checksum(std::string_view payload, std::uint64_t seed) {
  char sum[17];
  std::snprintf(sum, sizeof sum, "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload, seed)));
  return sum;
}

/// "<tag> <length> <checksum>\n<payload>".
std::string frame(std::string_view tag, std::string_view payload,
                  std::uint64_t seed) {
  return std::string{tag} + ' ' + std::to_string(payload.size()) + ' ' +
         checksum(payload, seed) + '\n' + std::string{payload};
}

constexpr std::string_view kDigits = "0123456789";
constexpr std::string_view kHexDigits = "0123456789abcdef";

/// True when `s` (the file's last bytes, with no newline) can be the start
/// of a frame line: what a crash part-way through writing one leaves.
bool frame_line_prefix(std::string_view s, std::string_view tag) {
  const std::string lead = std::string{tag} + ' ';
  if (s.size() <= lead.size()) return lead.compare(0, s.size(), s) == 0;
  return s.substr(0, lead.size()) == lead &&
         s.find_first_not_of(" 0123456789abcdef", lead.size()) ==
             std::string_view::npos;
}

enum class FrameRead { kOk, kTorn, kBad };

/// Reads the frame tagged `tag` at `pos`, checksummed from `seed`, and
/// advances `pos` past it.  kTorn means the file ends inside the frame;
/// kBad (with `err`) is damage.
FrameRead read_frame(std::string_view bytes, std::size_t& pos,
                     std::string_view tag, std::uint64_t seed,
                     std::string_view& payload, std::string& err) {
  const std::string_view rest = bytes.substr(pos);
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    if (frame_line_prefix(rest, tag)) return FrameRead::kTorn;
    err = "malformed " + std::string{tag} + " frame";
    return FrameRead::kBad;
  }
  const std::string_view line = rest.substr(0, nl);
  const std::size_t len_at = tag.size() + 1;
  const std::size_t sp = line.find(' ', len_at);
  const std::string_view digits =
      sp == std::string_view::npos ? std::string_view{}
                                   : line.substr(len_at, sp - len_at);
  const std::string_view sum =
      sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
  if (line.substr(0, len_at) != std::string{tag} + ' ' || digits.empty() ||
      digits.size() > 12 ||
      digits.find_first_not_of(kDigits) != std::string_view::npos ||
      sum.size() != 16 ||
      sum.find_first_not_of(kHexDigits) != std::string_view::npos) {
    err = "malformed " + std::string{tag} + " frame";
    return FrameRead::kBad;
  }
  const std::size_t len = std::stoull(std::string{digits});
  if (len > rest.size() - nl - 1) return FrameRead::kTorn;
  payload = rest.substr(nl + 1, len);
  if (sum != checksum(payload, seed)) {
    err = std::string{tag} + " checksum mismatch";
    return FrameRead::kBad;
  }
  pos += nl + 1 + len;
  return FrameRead::kOk;
}

}  // namespace

SweepManifest SweepManifest::from(const Scenario& scenario,
                                  const SweepOptions& sweep) {
  SweepManifest m;
  m.scenario = scenario.name;
  m.axes = sweep.axes;
  m.replicate = sweep.replicate;
  m.stats = sweep.stats;
  if (sweep.base.duration.has_value()) {
    m.duration_ns = sweep.base.duration->count_nanos();
  }
  m.seed = sweep.base.seed;
  for (const auto& [k, v] : sweep.base.params()) m.params.emplace_back(k, v);
  m.shard_index = sweep.shard_index;
  m.shard_count = sweep.shard_count;
  return m;
}

std::size_t SweepManifest::n_points() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

void SweepManifest::save(std::ostream& os) const {
  os << "scenario ";
  write_str(os, scenario);
  os << "\nduration ";
  if (duration_ns.has_value()) {
    os << *duration_ns;
  } else {
    os << 'u';
  }
  os << "\nseed ";
  if (seed.has_value()) {
    os << *seed;
  } else {
    os << 'u';
  }
  os << "\nreplicate " << replicate << "\nstats ";
  write_str(os, stats_spelling(stats));
  os << "\nshard " << shard_index << ' ' << shard_count;
  os << "\nparams " << params.size() << '\n';
  for (const auto& [k, v] : params) {
    write_str(os, k);
    write_str(os, v);
    os << '\n';
  }
  os << "axes " << axes.size() << '\n';
  for (const auto& axis : axes) {
    write_str(os, axis.key);
    os << ' ' << axis.values.size() << ' ';
    for (const auto& v : axis.values) write_str(os, v);
    os << '\n';
  }
}

bool SweepManifest::load(std::istream& is, SweepManifest& out,
                         std::string& err) {
  out = SweepManifest{};
  err = "truncated or malformed manifest";
  if (!expect_token(is, "scenario") || !read_str(is, out.scenario)) {
    return false;
  }
  std::string tok;
  if (!expect_token(is, "duration") || !(is >> tok)) return false;
  if (tok != "u") {
    try {
      out.duration_ns = std::stoll(tok);
    } catch (...) {
      return false;
    }
  }
  if (!expect_token(is, "seed") || !(is >> tok)) return false;
  if (tok != "u") {
    try {
      out.seed = std::stoull(tok);
    } catch (...) {
      return false;
    }
  }
  if (!expect_token(is, "replicate") || !(is >> out.replicate) ||
      out.replicate < 1) {
    return false;
  }
  std::string stats_text;
  if (!expect_token(is, "stats") || !read_str(is, stats_text)) {
    return false;
  }
  std::ostringstream sink;
  if (!summary::parse_stats(stats_text, out.stats, sink)) return false;
  if (!expect_token(is, "shard") || !(is >> out.shard_index) ||
      !(is >> out.shard_count) || out.shard_count < 1 ||
      out.shard_index < 0 || out.shard_index >= out.shard_count) {
    return false;
  }
  std::size_t n_params = 0;
  if (!expect_token(is, "params") || !(is >> n_params) ||
      n_params > (1u << 20)) {
    return false;
  }
  for (std::size_t i = 0; i < n_params; ++i) {
    std::string k, v;
    if (!read_str(is, k) || !read_str(is, v)) return false;
    out.params.emplace_back(std::move(k), std::move(v));
  }
  std::size_t n_axes = 0;
  if (!expect_token(is, "axes") || !(is >> n_axes) || n_axes > 1024) {
    return false;
  }
  for (std::size_t a = 0; a < n_axes; ++a) {
    SweepAxis axis;
    std::size_t n_values = 0;
    if (!read_str(is, axis.key) || !(is >> n_values) ||
        n_values > 1'000'000) {
      return false;
    }
    axis.values.resize(n_values);
    for (auto& v : axis.values) {
      if (!read_str(is, v)) return false;
    }
    out.axes.push_back(std::move(axis));
  }
  // The task count bounds every index a record may carry; cap it the way
  // run_sweep caps a grid, which also keeps n_points() from overflowing.
  std::size_t tasks = static_cast<std::size_t>(out.replicate);
  for (const auto& axis : out.axes) {
    if (tasks > kMaxTasks || axis.values.empty() ||
        axis.values.size() > kMaxTasks / tasks) {
      return false;
    }
    tasks *= axis.values.size();
  }
  err.clear();
  return true;
}

bool SweepManifest::matches(const SweepManifest& other, bool ignore_shard_index,
                            std::string_view what, std::ostream& err) const {
  auto fail = [&](std::string_view field, const std::string& recorded,
                  const std::string& current) {
    err << "error: " << what << " does not match this sweep: " << field
        << " was " << recorded << " when it was written but is " << current
        << " now\n";
    return false;
  };
  if (scenario != other.scenario) {
    return fail("scenario", "'" + scenario + "'", "'" + other.scenario + "'");
  }
  if (axes.size() != other.axes.size()) {
    return fail("sweep grid", std::to_string(axes.size()) + " axes",
                std::to_string(other.axes.size()) + " axes");
  }
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].key != other.axes[a].key) {
      return fail("sweep grid", "axis '" + axes[a].key + "'",
                  "axis '" + other.axes[a].key + "'");
    }
    if (axes[a].values != other.axes[a].values) {
      return fail("sweep grid",
                  "axis '" + axes[a].key + "' with " +
                      std::to_string(axes[a].values.size()) + " value(s)",
                  "an axis with " +
                      std::to_string(other.axes[a].values.size()) +
                      " different value(s)");
    }
  }
  if (replicate != other.replicate) {
    return fail("--replicate", std::to_string(replicate),
                std::to_string(other.replicate));
  }
  if (stats != other.stats) {
    return fail("--stats", stats_spelling(stats),
                stats_spelling(other.stats));
  }
  if (duration_ns != other.duration_ns) {
    auto spell = [](const std::optional<std::int64_t>& d) {
      return d.has_value() ? std::to_string(*d) + "ns" : std::string{"unset"};
    };
    return fail("--duration", spell(duration_ns), spell(other.duration_ns));
  }
  if (seed != other.seed) {
    auto spell = [](const std::optional<std::uint64_t>& s) {
      return s.has_value() ? std::to_string(*s) : std::string{"unset"};
    };
    return fail("--seed", spell(seed), spell(other.seed));
  }
  if (params != other.params) {
    return fail("--set overrides", std::to_string(params.size()) + " keys",
                std::to_string(other.params.size()) + " keys");
  }
  if (shard_count != other.shard_count) {
    return fail("shard count", std::to_string(shard_count),
                std::to_string(other.shard_count));
  }
  if (!ignore_shard_index && shard_index != other.shard_index) {
    return fail("shard index", std::to_string(shard_index),
                std::to_string(other.shard_index));
  }
  return true;
}

bool shard_owns_point(const SweepManifest& m, std::size_t point) {
  return point % static_cast<std::size_t>(m.shard_count) ==
         static_cast<std::size_t>(m.shard_index);
}

SweepLogEncoder::SweepLogEncoder(SweepLogKind kind,
                                 const SweepManifest& manifest) {
  std::ostringstream m;
  manifest.save(m);
  manifest_sum_ = fnv1a64(m.str());
  head_ = std::string{kind == SweepLogKind::kCheckpoint ? kCheckpointMagic
                                                        : kPartialMagic} +
          ' ' + std::to_string(kFormatVersion) + '\n' +
          frame("manifest", m.str(), kFnvBasis);
}

std::string SweepLogEncoder::record(
    std::uint64_t heartbeat, std::uint64_t folded_tasks,
    const std::vector<const FinishedPoint*>& points) const {
  std::ostringstream os;
  os << "heartbeat " << heartbeat << " folded " << folded_tasks << " points "
     << points.size() << '\n';
  for (const FinishedPoint* p : points) {
    os << "point " << p->index << ' ' << p->lines.size() << ' ';
    write_str(os, p->csv_header);
    os << ' ';
    write_str(os, p->stats_header);
    os << '\n';
    for (const auto& line : p->lines) {
      write_str(os, line);
      os << '\n';
    }
  }
  return frame("record", os.str(), manifest_sum_);
}

namespace {

/// Parses one record payload, appending its points to `log`.  Points
/// arrive in grid order, each once.
bool parse_record(std::string_view payload, SweepLog& log, std::string& err) {
  err = "malformed record";
  std::istringstream is{std::string{payload}};
  std::uint64_t heartbeat = 0, folded = 0;
  std::size_t n_points = 0;
  if (!expect_token(is, "heartbeat") || !(is >> heartbeat) ||
      !expect_token(is, "folded") || !(is >> folded) ||
      !expect_token(is, "points") || !(is >> n_points) ||
      n_points > payload.size()) {
    return false;
  }
  const SweepManifest& m = log.manifest;
  for (std::size_t i = 0; i < n_points; ++i) {
    FinishedPoint p;
    std::size_t n_lines = 0;
    if (!expect_token(is, "point") || !(is >> p.index) ||
        !(is >> n_lines) || n_lines > payload.size() ||
        !read_str(is, p.csv_header) || !read_str(is, p.stats_header)) {
      return false;
    }
    if (p.index >= m.n_points() || !shard_owns_point(m, p.index) ||
        (!log.points.empty() && p.index <= log.points.back().index)) {
      err = "record holds point " + std::to_string(p.index) +
            ", which is out of order or not owned by this shard";
      return false;
    }
    p.lines.resize(n_lines);
    for (auto& line : p.lines) {
      if (!read_str(is, line)) return false;
    }
    if (n_lines > 0 && (p.csv_header.empty() ||
                        (m.replicate > 1) == p.stats_header.empty())) {
      err = "record holds rows for point " + std::to_string(p.index) +
            " without the headers they follow";
      return false;
    }
    log.points.push_back(std::move(p));
  }
  if (!at_end(is)) return false;
  // The counters are cumulative: the heartbeat ticks on every append, and
  // every recorded point has all its replicates folded.
  if (heartbeat <= log.heartbeat || folded > owned_task_count(m) ||
      folded < log.points.size() * static_cast<std::uint64_t>(m.replicate)) {
    err = "record counters are inconsistent";
    return false;
  }
  log.heartbeat = heartbeat;
  log.folded_tasks = folded;
  err.clear();
  return true;
}

}  // namespace

bool parse_sweep_log(std::string_view bytes, SweepLog& out, std::string& err) {
  out = SweepLog{};
  const std::size_t nl = bytes.find('\n');
  const std::string_view magic_line = bytes.substr(0, nl);
  const std::size_t sp = magic_line.find(' ');
  const std::string_view magic = magic_line.substr(0, sp);
  if (magic == kCheckpointMagic) {
    out.kind = SweepLogKind::kCheckpoint;
  } else if (magic == kPartialMagic) {
    out.kind = SweepLogKind::kPartial;
  } else {
    err = "not a sweep checkpoint or partial (bad magic)";
    return false;
  }
  const std::string_view version =
      sp == std::string_view::npos ? std::string_view{}
                                   : magic_line.substr(sp + 1);
  if (nl == std::string_view::npos ||
      version != std::to_string(kFormatVersion)) {
    err = "unsupported sweep state version '" + std::string{version} +
          "' (this build reads version " + std::to_string(kFormatVersion) +
          " logs only)";
    return false;
  }
  std::size_t pos = nl + 1;
  std::string_view payload;
  const FrameRead head =
      read_frame(bytes, pos, "manifest", kFnvBasis, payload, err);
  if (head != FrameRead::kOk) {
    if (head == FrameRead::kTorn) err = "truncated manifest";
    return false;
  }
  const std::uint64_t manifest_sum = fnv1a64(payload);
  std::istringstream ms{std::string{payload}};
  if (!SweepManifest::load(ms, out.manifest, err)) return false;
  if (!at_end(ms)) {
    err = "trailing bytes after the manifest";
    return false;
  }
  for (std::size_t n = 1; pos < bytes.size(); ++n) {
    const FrameRead r =
        read_frame(bytes, pos, "record", manifest_sum, payload, err);
    if (r == FrameRead::kTorn) {
      out.torn_tail = true;
      break;
    }
    if (r == FrameRead::kBad || !parse_record(payload, out, err)) {
      err = "record " + std::to_string(n) + ": " + err;
      return false;
    }
  }
  err.clear();
  return true;
}

namespace {

#if defined(__unix__) || defined(__APPLE__)
/// fsyncs one path (a file, or a directory so a just-renamed entry is
/// durable).  Returns false on open/fsync failure.
bool fsync_path(const std::string& path, bool directory) {
  const int flags = directory ? O_RDONLY
#ifdef O_DIRECTORY
                                    | O_DIRECTORY
#endif
                              : O_WRONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}
#endif

/// Writes `bytes` to `path` via a temp file + rename, so a kill mid-write
/// can never leave a truncated file behind.  On POSIX the temp file is
/// fsync'd before the rename and the directory entry fsync'd after it, so
/// even power loss (not just SIGKILL) cannot surface a torn file, or a
/// valid-looking stale one, under the final name.
bool write_file_atomic(const std::string& path, std::string_view bytes,
                       std::ostream& err) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os{tmp, std::ios::binary | std::ios::trunc};
    if (!os) {
      err << "error: cannot open '" << tmp << "' for writing\n";
      return false;
    }
    os << bytes;
    os.flush();
    if (!os) {
      err << "error: failed writing '" << tmp << "'\n";
      return false;
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  if (!fsync_path(tmp, /*directory=*/false)) {
    err << "error: cannot fsync '" << tmp << "'\n";
    return false;
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    err << "error: cannot rename '" << tmp << "' to '" << path << "'\n";
    return false;
  }
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string{"."} : path.substr(0, slash);
  if (!fsync_path(dir.empty() ? std::string{"/"} : dir, /*directory=*/true)) {
    err << "error: cannot fsync directory of '" << path << "'\n";
    return false;
  }
#endif
  return true;
}

}  // namespace

bool read_sweep_log(const std::string& path, SweepLog& out,
                    std::ostream& err) {
  std::ifstream is{path, std::ios::binary};
  if (!is) {
    err << "error: cannot open '" << path << "'\n";
    return false;
  }
  std::ostringstream bytes;
  bytes << is.rdbuf();  // an empty file fails below, as a bad magic line
  std::string why;
  if (!parse_sweep_log(bytes.str(), out, why)) {
    err << "error: cannot load '" << path << "': " << why << '\n';
    return false;
  }
  return true;
}

SweepLogWriter::SweepLogWriter(std::string path, const SweepManifest& manifest)
    : path_{std::move(path)},
      encoder_{SweepLogKind::kCheckpoint, manifest} {}

SweepLogWriter::~SweepLogWriter() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
}

bool SweepLogWriter::append(std::uint64_t heartbeat,
                            std::uint64_t folded_tasks,
                            const std::vector<const FinishedPoint*>& points,
                            std::ostream& err) {
  const std::string record =
      encoder_.record(heartbeat, folded_tasks, points);
  if (!created_) {
    if (!write_file_atomic(path_, encoder_.head() + record, err)) {
      return false;
    }
    created_ = true;
#if defined(__unix__) || defined(__APPLE__)
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) {
      err << "error: cannot reopen '" << path_ << "' for appending\n";
      return false;
    }
#endif
    return true;
  }
#if defined(__unix__) || defined(__APPLE__)
  // One write of the whole record: a crash can cut it short (the torn tail
  // every reader drops) but never interleave it with another.
#if defined(__APPLE__)
  const bool synced = write_all(fd_, record) && ::fsync(fd_) == 0;
#else
  const bool synced = write_all(fd_, record) && ::fdatasync(fd_) == 0;
#endif
  if (!synced) {
    err << "error: cannot append to '" << path_ << "'\n";
    return false;
  }
#else
  std::ofstream os{path_, std::ios::binary | std::ios::app};
  if (!(os << record).flush()) {
    err << "error: cannot append to '" << path_ << "'\n";
    return false;
  }
#endif
  return true;
}

bool read_checkpoint_progress(const std::string& path, CheckpointProgress& out,
                              std::string& err) {
  out = CheckpointProgress{};
  SweepLog log;
  std::ostringstream why;
  if (!read_sweep_log(path, log, why)) {
    err = why.str();
    return false;
  }
  if (log.kind != SweepLogKind::kCheckpoint) {
    err = "'" + path + "' is a shard partial, not a sweep checkpoint";
    return false;
  }
  out.heartbeat = log.heartbeat;
  out.folded_tasks = log.folded_tasks;
  err.clear();
  return true;
}

int emit_sweep_aggregate(const SweepManifest& manifest,
                         const std::vector<std::vector<std::string>>& grid,
                         const std::vector<std::optional<FinishedPoint>>& points,
                         std::ostream& out, std::ostream& err) {
  const std::vector<SweepAxis>& axes = manifest.axes;
  // The CSV header comes from the first point that printed one; the
  // statistics header from the first point with rows (rowless points emit
  // nothing and are exempt from the comparison).
  const FinishedPoint* csv_ref = nullptr;
  const FinishedPoint* stats_ref = nullptr;
  for (const auto& p : points) {
    if (!p.has_value()) continue;
    if (!p->csv_header.empty()) {
      if (csv_ref == nullptr) {
        csv_ref = &*p;
      } else if (p->csv_header != csv_ref->csv_header) {
        err << "error: sweep point " << point_label(axes, grid[p->index])
            << " emitted CSV header '" << p->csv_header
            << "' but earlier points emitted '" << csv_ref->csv_header
            << "'\n";
        return 1;
      }
    }
    if (!p->lines.empty()) {
      if (stats_ref == nullptr) {
        stats_ref = &*p;
      } else if (p->stats_header != stats_ref->stats_header) {
        err << "error: sweep point " << point_label(axes, grid[p->index])
            << " has a different numeric/label column mix than earlier "
               "points; cannot aggregate\n";
        return 1;
      }
    }
  }
  if (csv_ref == nullptr) {
    err << "error: no CSV trace found in any sweep point's output\n";
    return 1;
  }

  for (const auto& axis : axes) out << axis.key << ',';
  const bool replicated = manifest.replicate > 1;
  if (!replicated) {
    out << csv_ref->csv_header << '\n';
  } else if (stats_ref != nullptr) {
    out << stats_ref->stats_header << ",n_rep\n";
  } else {
    // No point has rows: every column is still numeric.
    const summary::ColumnSummary all_numeric{
        summary::split_csv(csv_ref->csv_header)};
    out << summary::join_csv(all_numeric.header(manifest.stats)) << ",n_rep\n";
  }
  for (const auto& p : points) {
    if (!p.has_value()) continue;
    for (const auto& line : p->lines) {
      for (const auto& value : grid[p->index]) out << value << ',';
      out << line;
      if (replicated) out << ',' << manifest.replicate;
      out << '\n';
    }
  }
  return 0;
}

int merge_main(int argc, char** argv, std::ostream& err) {
  std::optional<std::string> output_path;
  std::vector<std::string> part_paths;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--output") {
      if (i + 1 >= argc) {
        err << "error: --output expects a path\n";
        return 2;
      }
      output_path = argv[i + 1];
      ++i;
    } else if (arg.substr(0, 2) == "--") {
      err << "error: unknown merge flag '" << arg << "'\n";
      return 2;
    } else {
      part_paths.emplace_back(arg);
    }
  }
  if (part_paths.empty()) {
    err << "usage: tfmcc_sim merge [--output <path>] <partial>...\n"
           "Places the finished points of the partial-aggregate artifacts "
           "written by `sweep --shard i/n` — all n of them, each exactly "
           "once — into the aggregate CSV the unsharded sweep would have "
           "written.\n";
    return 2;
  }

  std::vector<SweepLog> parts(part_paths.size());
  for (std::size_t i = 0; i < part_paths.size(); ++i) {
    if (!read_sweep_log(part_paths[i], parts[i], err)) return 2;
    if (parts[i].kind != SweepLogKind::kPartial) {
      err << "error: '" << part_paths[i]
          << "' is a sweep checkpoint, not a shard partial (resume it with "
             "`sweep ... --resume` instead)\n";
      return 2;
    }
    // A partial is written whole when its shard finishes; unlike a
    // checkpoint, a cut-short one is damage, not a crash to resume from.
    if (parts[i].torn_tail || parts[i].heartbeat == 0) {
      err << "error: partial '" << part_paths[i]
          << "' is truncated (its record is missing or incomplete)\n";
      return 2;
    }
  }
  const SweepManifest& ref = parts.front().manifest;
  if (parts.size() != static_cast<std::size_t>(ref.shard_count)) {
    err << "error: sweep was sharded " << ref.shard_count << " ways but "
        << parts.size() << " partial(s) were given\n";
    return 2;
  }
  std::set<int> shards_seen;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (!parts[i].manifest.matches(ref, /*ignore_shard_index=*/true,
                                   "partial '" + part_paths[i] + "'", err)) {
      return 2;
    }
    if (!shards_seen.insert(parts[i].manifest.shard_index).second) {
      err << "error: shard " << parts[i].manifest.shard_index << "/"
          << ref.shard_count << " appears more than once\n";
      return 2;
    }
  }

  // Each point has exactly one owner (validated when the partial was read),
  // so placing by index reassembles the grid as the owners computed it.
  const auto grid = expand_grid(ref.axes);
  std::vector<std::optional<FinishedPoint>> points(grid.size());
  for (auto& part : parts) {
    for (auto& p : part.points) {
      const std::size_t index = p.index;
      points[index] = std::move(p);
    }
  }
  // Every shard is present exactly once, so a point no partial holds was
  // left out by its owner: its shard did not finish it.
  for (std::size_t p = 0; p < grid.size(); ++p) {
    if (points[p].has_value()) continue;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (!shard_owns_point(parts[i].manifest, p)) continue;
      err << "error: partial '" << part_paths[i] << "' (shard "
          << parts[i].manifest.shard_index << "/" << ref.shard_count
          << ") lacks grid point " << point_label(ref.axes, grid[p])
          << " that its shard owns\n";
    }
    return 2;
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (output_path.has_value()) {
    if (!open_output_file(*output_path, file, err)) return 2;
    out = &file;
  }
  SweepManifest unsharded = ref;
  unsharded.shard_index = 0;
  unsharded.shard_count = 1;
  const int rc = emit_sweep_aggregate(unsharded, grid, points, *out, err);
  if (file.is_open() && !finish_output_file(*output_path, file, err)) {
    return 2;
  }
  return rc;
}

}  // namespace tfmcc
