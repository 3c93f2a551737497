#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

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
class ThroughputBinner {
 public:
  /// Throws std::invalid_argument unless `bin_width` is positive.
  explicit ThroughputBinner(SimTime bin_width) : width_{bin_width} {
    if (bin_width <= SimTime::zero()) {
      throw std::invalid_argument(
          "ThroughputBinner: bin width must be positive");
    }
  }

  void add(SimTime t, std::int64_t bytes);

  /// Completed bins as (bin start time, throughput in kbit/s).
  TimeSeries series_kbps() const;

  /// Average throughput (kbit/s) over [from, to), computed from raw bytes.
  double mean_kbps(SimTime from, SimTime to) const;

  std::int64_t total_bytes() const { return total_bytes_; }

 private:
  SimTime width_;
  std::vector<std::int64_t> bins_;  // bytes per bin, bin i covers [i*w,(i+1)*w)
  std::int64_t total_bytes_{0};
  // Current-bin anchor for the divisionless fast path in add().
  std::size_t cur_idx_{0};
  std::int64_t cur_start_ns_{0};
};

/// Sliding-window receive-rate estimator: rate over the span of the last
/// k packet arrivals.  TFMCC receivers measure their receive rate "over
/// several RTTs" (paper §2.6); the window is sized in packets but we also
/// expose a time horizon so low-rate flows do not average over minutes.
class WindowedRateMeter {
 public:
  /// The largest window, in packets.
  static constexpr std::size_t kMaxPackets = 64;

  explicit WindowedRateMeter(std::size_t max_packets = kMaxPackets,
                             SimTime max_horizon = SimTime::seconds(4.0))
      : max_packets_{max_packets}, horizon_{max_horizon} {
    if (max_packets > kMaxPackets) {
      throw std::invalid_argument(
          "WindowedRateMeter: window above kMaxPackets");
    }
  }

  void on_packet(SimTime t, std::int64_t bytes);

  /// Receive rate in bytes/second; 0 until two packets have arrived.
  double rate_Bps(SimTime now) const;

  bool has_estimate() const { return size_ >= 2; }

 private:
  // Fixed ring buffer: this runs once per delivered packet for every
  // receiver, so eviction must be pointer bumps, not deque node traffic.
  // window_bytes_ tracks the exact integer sum of the buffered arrivals,
  // making rate_Bps O(1) with bit-identical results (int64 addition is
  // associative, unlike the float sums it feeds).
  struct Arrival {
    SimTime t;
    std::int64_t bytes;
  };
  std::size_t wrap(std::size_t i) const {  // i < 2 * capacity
    return i > max_packets_ ? i - (max_packets_ + 1) : i;
  }
  const Arrival& at(std::size_t i) const {  // i-th oldest
    return ring_[wrap(head_ + i)];
  }
  void pop_front() {
    window_bytes_ -= ring_[head_].bytes;
    head_ = wrap(head_ + 1);
    --size_;
  }

  std::size_t max_packets_;
  SimTime horizon_;
  // Capacity max_packets_ + 1 of the inline slots; the wrap is a
  // well-predicted compare.  Inline, the ring sits in the receiver that
  // owns the meter, which a TfmccFlow places in the Simulator's arena next
  // to the host's other state: it is touched on every delivery.
  std::array<Arrival, kMaxPackets + 1> ring_{};
  std::size_t head_{0};
  std::size_t size_{0};
  std::int64_t window_bytes_{0};
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
