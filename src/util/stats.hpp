#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/headers.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

/// A (time, value) series; used by the figure benches.
class TimeSeries {
 public:
  void push(SimTime t, double v) { points_.push_back({t, v}); }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  struct Point {
    SimTime t;
    double v;
  };
  // Ref-qualified so `binner.series_kbps().points()` in a range-for is safe:
  // on a temporary TimeSeries the vector is moved out as a prvalue (whose
  // lifetime the range-for extends) instead of a reference into the dying
  // temporary.
  const std::vector<Point>& points() const& { return points_; }
  std::vector<Point> points() && { return std::move(points_); }

 private:
  std::vector<Point> points_;
};

/// Bins byte arrivals into fixed-width wall-clock bins and reports each bin
/// as a throughput sample.  This is how all per-flow throughput traces in the
/// figure benches are produced (the paper plots 1 s binned rates).
///
/// A receiver adds every delivered packet, so add() touches only the
/// current bin's bounds and byte count, which sit first: bins_ is written
/// when an arrival leaves the current bin, and readers fold the current bin
/// in.
class ThroughputBinner {
 public:
  /// Throws std::invalid_argument unless `bin_width` is positive.
  explicit ThroughputBinner(SimTime bin_width) : width_{bin_width} {
    if (bin_width <= SimTime::zero()) {
      throw std::invalid_argument(
          "ThroughputBinner: bin width must be positive");
    }
  }

  void add(SimTime t, std::int64_t bytes) {
    const std::int64_t ns = t.count_nanos();
    if (ns < cur_start_ns_ || ns >= cur_end_ns_) enter_bin(ns);
    cur_bytes_ += bytes;
    total_bytes_ += bytes;
  }

  /// Completed bins as (bin start time, throughput in kbit/s).
  TimeSeries series_kbps() const;

  /// Average throughput (kbit/s) over [from, to), computed from raw bytes.
  double mean_kbps(SimTime from, SimTime to) const;

  std::int64_t total_bytes() const { return total_bytes_; }

 private:
  /// Moves the current bin to the one holding `ns`, flushing the old one.
  void enter_bin(std::int64_t ns);
  /// Bins so far: every bin up to the last one an arrival fell in.
  std::size_t bin_count() const;
  /// Bytes in bin i, the current bin folded in.
  std::int64_t bin_bytes(std::size_t i) const;

  // The current bin [cur_start_ns_, cur_end_ns_) and its bytes; an empty
  // range until the first arrival.
  std::int64_t cur_start_ns_{0};
  std::int64_t cur_end_ns_{0};
  std::int64_t cur_bytes_{0};
  std::int64_t total_bytes_{0};
  std::size_t cur_idx_{0};
  SimTime width_;
  // Bytes per flushed bin, bin i covering [i*w, (i+1)*w); the current bin's
  // slot, when it has one, excludes cur_bytes_.
  std::vector<std::int64_t> bins_;
};

/// Sliding-window receive-rate estimator: rate over the span of the last
/// kWindowPackets packet arrivals.  TFMCC receivers measure their receive
/// rate "over several RTTs" (paper §2.6); the window is sized in packets
/// but also bounded by a time horizon so low-rate flows do not average
/// over minutes.  Every packet it meters is a TFMCC data packet of
/// kDataPacketBytes, the same `s` the control equation uses, so it keeps
/// only arrival times and counts packets.
class WindowedRateMeter {
 public:
  static constexpr std::size_t kWindowPackets = 64;
  static constexpr SimTime kHorizon = SimTime::seconds(4.0);
  static constexpr std::int64_t kPacketBytes = kDataPacketBytes;

  /// A kPacketBytes packet arrived at `t`.
  void on_packet(SimTime t);

  /// Receive rate in bytes/second; 0 until two packets have arrived.
  double rate_Bps(SimTime now) const;

  bool has_estimate() const { return size_ >= 2; }

 private:
  // Fixed ring buffer: this runs once per delivered packet for every
  // receiver, so eviction must be index bumps, not deque node traffic.
  // The window's bytes are (size_ - 1) * kPacketBytes, an exact integer,
  // so rate_Bps is O(1).
  static_assert((kWindowPackets & (kWindowPackets - 1)) == 0,
                "the ring wraps by masking");
  static std::size_t wrap(std::size_t i) { return i & (kWindowPackets - 1); }

  // Cursors first: every arrival reads them, and ahead of the ring they
  // share its first line.
  std::uint32_t head_{0};
  std::uint32_t size_{0};
  // Inline, the ring sits in the receiver that owns the meter, which a
  // TfmccFlow places in the Simulator's arena next to the host's other
  // state: it is touched on every delivery, a new line every 8 packets.
  std::array<SimTime, kWindowPackets> ring_{};
};

/// Exact quantile of a sample (copies + sorts; fine for analysis code).
double quantile(std::vector<double> xs, double q);

constexpr double kbps_from_Bps(double bytes_per_sec) {
  return bytes_per_sec * 8.0 / 1000.0;
}
constexpr double Bps_from_kbps(double kbit_per_sec) {
  return kbit_per_sec * 1000.0 / 8.0;
}

}  // namespace tfmcc
