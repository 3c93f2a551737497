#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/sim_time.hpp"

namespace tfmcc {

/// A (time, value) series with CSV export; used by the figure benches.
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

  /// Mean of values with t in [from, to).
  double mean_in(SimTime from, SimTime to) const;
  double max_value() const;

  void write_csv(std::ostream& os, const std::string& label) const;

 private:
  std::vector<Point> points_;
};

/// Bins byte arrivals into fixed-width wall-clock bins and reports each bin
/// as a throughput sample.  This is how all per-flow throughput traces in the
/// figure benches are produced (the paper plots 1 s binned rates).
class ThroughputBinner {
 public:
  explicit ThroughputBinner(SimTime bin_width) : width_{bin_width} {}

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
  explicit WindowedRateMeter(std::size_t max_packets = 64,
                             SimTime max_horizon = SimTime::seconds(4.0))
      : max_packets_{max_packets}, horizon_{max_horizon} {}

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
    return i >= ring_.size() ? i - ring_.size() : i;
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
  // Exact capacity max_packets_ + 1, lazily sized; the wrap is a
  // well-predicted compare, and the tight capacity keeps the per-receiver
  // footprint small (a 1000-receiver run holds 1000 of these rings).
  std::vector<Arrival> ring_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::int64_t window_bytes_{0};
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin.  Used by feedback-delay analyses.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::int64_t count() const { return total_; }
  double quantile(double q) const;
  // Ref-qualified like TimeSeries::points(): chaining bins() off a
  // temporary Histogram moves the vector out instead of returning a
  // reference into the dying temporary (PR 1's dangling pattern).
  const std::vector<std::int64_t>& bins() const& { return counts_; }
  std::vector<std::int64_t> bins() && { return std::move(counts_); }
  double bin_center(std::size_t i) const;

 private:
  double lo_, hi_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_{0};
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
