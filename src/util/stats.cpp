#include "util/stats.hpp"

#include <cassert>

namespace tfmcc {

void ThroughputBinner::enter_bin(std::int64_t ns) {
  assert(ns >= 0);
  const std::int64_t w = width_.count_nanos();
  const bool started = cur_end_ns_ != 0;
  if (started) {
    if (bins_.size() <= cur_idx_) bins_.resize(cur_idx_ + 1, 0);
    bins_[cur_idx_] += cur_bytes_;
  }
  cur_bytes_ = 0;
  // Arrivals are time-ordered, so the next bin is almost always the one
  // after the current (or a few later): step forward instead of dividing
  // 64-bit nanoseconds.  Large jumps (long silences, late joins) and the
  // first arrival fall back to the division once.
  if (!started || ns < cur_start_ns_ || ns - cur_start_ns_ >= 64 * w) {
    cur_idx_ = static_cast<std::size_t>(ns / w);
    cur_start_ns_ = static_cast<std::int64_t>(cur_idx_) * w;
  } else {
    while (ns - cur_start_ns_ >= w) {
      ++cur_idx_;
      cur_start_ns_ += w;
    }
  }
  cur_end_ns_ = cur_start_ns_ + w;
}

std::size_t ThroughputBinner::bin_count() const {
  if (cur_end_ns_ == 0) return bins_.size();
  return std::max(bins_.size(), cur_idx_ + 1);
}

std::int64_t ThroughputBinner::bin_bytes(std::size_t i) const {
  std::int64_t bytes = i < bins_.size() ? bins_[i] : 0;
  if (i == cur_idx_) bytes += cur_bytes_;
  return bytes;
}

TimeSeries ThroughputBinner::series_kbps() const {
  TimeSeries out;
  const double w_sec = width_.to_seconds();
  for (std::size_t i = 0; i < bin_count(); ++i) {
    const double bps = static_cast<double>(bin_bytes(i)) / w_sec;
    out.push(width_ * static_cast<double>(i), kbps_from_Bps(bps));
  }
  return out;
}

double ThroughputBinner::mean_kbps(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < bin_count(); ++i) {
    const SimTime start = width_ * static_cast<double>(i);
    if (start >= from && start < to) bytes += bin_bytes(i);
  }
  return kbps_from_Bps(static_cast<double>(bytes) / (to - from).to_seconds());
}

void WindowedRateMeter::on_packet(SimTime t) {
  // A full window drops its oldest arrival to make room.
  if (size_ == kWindowPackets) {
    head_ = static_cast<std::uint32_t>(wrap(head_ + 1));
    --size_;
  }
  ring_[wrap(head_ + size_)] = t;
  ++size_;
  while (size_ >= 2 && t - ring_[head_] > kHorizon) {
    head_ = static_cast<std::uint32_t>(wrap(head_ + 1));
    --size_;
  }
}

double WindowedRateMeter::rate_Bps(SimTime now) const {
  if (size_ < 2) return 0.0;
  // Exclude the first packet: it arrived at the window's start instant, so
  // only the span after it carries the remaining packets.
  const std::int64_t bytes =
      static_cast<std::int64_t>(size_ - 1) * kPacketBytes;
  const SimTime first = ring_[head_];
  const SimTime span = std::max(now, ring_[wrap(head_ + size_ - 1)]) - first;
  if (span <= SimTime::zero()) return 0.0;
  return static_cast<double>(bytes) / span.to_seconds();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= xs.size()) return xs.back();
  const double frac = pos - static_cast<double>(i);
  return xs[i] * (1.0 - frac) + xs[i + 1] * frac;
}

}  // namespace tfmcc
