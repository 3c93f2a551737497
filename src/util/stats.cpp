#include "util/stats.hpp"

#include <cassert>
#include <limits>

namespace tfmcc {

double TimeSeries::mean_in(SimTime from, SimTime to) const {
  double sum = 0.0;
  std::int64_t n = 0;
  for (const auto& p : points_) {
    if (p.t >= from && p.t < to) {
      sum += p.v;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double TimeSeries::max_value() const {
  double m = -std::numeric_limits<double>::infinity();
  for (const auto& p : points_) m = std::max(m, p.v);
  return points_.empty() ? 0.0 : m;
}

void TimeSeries::write_csv(std::ostream& os, const std::string& label) const {
  for (const auto& p : points_) {
    os << label << ',' << p.t.to_seconds() << ',' << p.v << '\n';
  }
}

void ThroughputBinner::add(SimTime t, std::int64_t bytes) {
  assert(t >= SimTime::zero());
  // Arrivals are time-ordered, so the bin index is almost always the one
  // from the previous call (or the next few): track the current bin's
  // bounds and step forward instead of dividing 64-bit nanoseconds per
  // packet.  Large jumps (long silences, late joins) fall back to the
  // division once and re-anchor.
  const std::int64_t ns = t.count_nanos();
  if (ns < cur_start_ns_ || ns - cur_start_ns_ >= 64 * width_.count_nanos()) {
    cur_idx_ = static_cast<std::size_t>(ns / width_.count_nanos());
    cur_start_ns_ = static_cast<std::int64_t>(cur_idx_) * width_.count_nanos();
  } else {
    while (ns - cur_start_ns_ >= width_.count_nanos()) {
      ++cur_idx_;
      cur_start_ns_ += width_.count_nanos();
    }
  }
  if (bins_.size() <= cur_idx_) bins_.resize(cur_idx_ + 1, 0);
  bins_[cur_idx_] += bytes;
  total_bytes_ += bytes;
}

TimeSeries ThroughputBinner::series_kbps() const {
  TimeSeries out;
  const double w_sec = width_.to_seconds();
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double bps = static_cast<double>(bins_[i]) / w_sec;
    out.push(width_ * static_cast<double>(i), kbps_from_Bps(bps));
  }
  return out;
}

double ThroughputBinner::mean_kbps(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const SimTime start = width_ * static_cast<double>(i);
    if (start >= from && start < to) bytes += bins_[i];
  }
  return kbps_from_Bps(static_cast<double>(bytes) / (to - from).to_seconds());
}

void WindowedRateMeter::on_packet(SimTime t, std::int64_t bytes) {
  ring_[wrap(head_ + size_)] = {t, bytes};
  ++size_;
  window_bytes_ += bytes;
  while (size_ > max_packets_ || (size_ >= 2 && t - ring_[head_].t > horizon_)) {
    pop_front();
  }
}

double WindowedRateMeter::rate_Bps(SimTime now) const {
  if (size_ < 2) return 0.0;
  // Exclude the first packet's bytes: they arrived at the window's start
  // instant, so only the span after it carries the remaining bytes.
  const std::int64_t bytes = window_bytes_ - ring_[head_].bytes;
  const SimTime span = std::max(now, at(size_ - 1).t) - ring_[head_].t;
  if (span <= SimTime::zero()) return 0.0;
  return static_cast<double>(bytes) / span.to_seconds();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double f = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::int64_t>(f * static_cast<double>(counts_.size()));
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  const auto target = static_cast<std::int64_t>(q * static_cast<double>(total_));
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    if (acc > target) return bin_center(i);
  }
  return hi_;
}

double Histogram::bin_center(std::size_t i) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * w;
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
