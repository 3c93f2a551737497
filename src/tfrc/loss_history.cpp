#include "tfrc/loss_history.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace tfmcc {

LossHistory::LossHistory(int depth)
    : depth_{std::max(2, depth)}, weights_{weights(depth_).data()} {}

const std::vector<double>& LossHistory::weights(int depth) {
  // Sweep points build histories on several threads; std::map keeps every
  // table at a stable address once inserted.
  static std::mutex mu;
  static std::map<int, std::vector<double>> tables;
  const std::lock_guard<std::mutex> lock{mu};
  if (const auto it = tables.find(depth); it != tables.end()) return it->second;
  // TFRC profile: w_i = min(1, 2*(n-i)/(n+2)), newest first.  For n=8 this
  // is {1,1,1,1,0.8,0.6,0.4,0.2} == the paper's {5,5,5,5,4,3,2,1}/5.
  std::vector<double> w(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    w[static_cast<std::size_t>(i)] =
        std::min(1.0, 2.0 * static_cast<double>(depth - i) /
                          static_cast<double>(depth + 2));
  }
  return tables.emplace(depth, std::move(w)).first->second;
}

void LossHistory::on_packet_received() {
  open_count_ += 1.0;
  recv_gap_ += 1.0;
}

bool LossHistory::on_packet_lost(SimTime loss_time, SimTime rtt) {
  if (log_open_) {
    const LossRecord rec{loss_time, recv_gap_};
    if (loss_log_.size() < kMaxLossLog) {
      loss_log_.push_back(rec);
    } else {
      loss_log_[log_head_] = rec;  // overwrite the oldest
      log_head_ = (log_head_ + 1) % kMaxLossLog;
    }
  }
  recv_gap_ = 0.0;

  const bool new_event =
      event_start_.is_infinite() || loss_time - event_start_ > rtt;
  if (new_event) {
    close_open_interval();
    event_start_ = loss_time;
    ++events_;
  }
  return new_event;
}

void LossHistory::close_open_interval() {
  if (intervals_.capacity() == 0) {
    intervals_.reserve(static_cast<std::size_t>(depth_) + 1);
  }
  intervals_.insert(intervals_.begin(), open_count_);
  open_count_ = 0.0;
  if (intervals_.size() > static_cast<std::size_t>(depth_)) {
    intervals_.pop_back();
    initial_synthetic_ = false;  // the synthetic interval aged out
  }
}

double LossHistory::average_interval() const {
  if (intervals_.empty()) return 0.0;

  const auto m = std::min<std::size_t>(intervals_.size(),
                                       static_cast<std::size_t>(depth_));
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    num += weights_[i] * intervals_[i];
    den += weights_[i];
  }
  const double avg_closed = num / den;

  // Include the open interval (shifting everything one slot older) only if
  // doing so *raises* the average, i.e. lowers p (paper §2.3).
  double num_o = weights_[0] * open_count_, den_o = weights_[0];
  const auto mo = std::min<std::size_t>(intervals_.size(),
                                        static_cast<std::size_t>(depth_) - 1);
  for (std::size_t i = 0; i < mo; ++i) {
    num_o += weights_[i + 1] * intervals_[i];
    den_o += weights_[i + 1];
  }
  const double avg_open = num_o / den_o;

  return std::max(avg_closed, avg_open);
}

double LossHistory::loss_event_rate() const {
  const double avg = average_interval();
  return avg > 0.0 ? 1.0 / avg : 0.0;
}

void LossHistory::init_first_interval(double interval) {
  assert(!intervals_.empty());
  interval = std::max(1.0, interval);
  intervals_.front() = interval;
  initial_synthetic_ = true;
  synthetic_value_ = interval;
}

void LossHistory::rescale_initial_interval(SimTime rtt_real, SimTime rtt_init) {
  if (!initial_synthetic_ || intervals_.empty()) return;
  const double ratio = rtt_real / rtt_init;
  const double factor = ratio * ratio;  // simplified model: I' = I*(R/R0)^2
  auto& oldest = intervals_.back();
  oldest = std::max(1.0, oldest * factor);
  initial_synthetic_ = false;
}

void LossHistory::reaggregate(SimTime rtt) {
  log_open_ = false;
  if (loss_log_.empty()) return;

  std::vector<double> closed;  // oldest -> newest
  double acc = 0.0;
  SimTime ev_start = SimTime::infinity();
  int events = 0;
  const std::size_t n = loss_log_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const LossRecord& rec = loss_log_[(log_head_ + k) % n];
    acc += rec.pkts_before;
    if (ev_start.is_infinite() || rec.t - ev_start > rtt) {
      closed.push_back(acc);
      acc = 0.0;
      ev_start = rec.t;
      ++events;
    }
    // Losses within `rtt` of the event start: same event; received packets
    // between them keep accumulating into the next interval.
  }

  intervals_.clear();
  for (auto it = closed.rbegin(); it != closed.rend(); ++it) {
    intervals_.push_back(std::max(0.0, *it));
    if (intervals_.size() >= static_cast<std::size_t>(depth_)) break;
  }
  // The interval "before the first logged loss" is the synthetic initial
  // interval when one was installed; restore it so Appendix B still applies.
  if (initial_synthetic_ && !intervals_.empty()) {
    intervals_.back() = synthetic_value_;
  }
  open_count_ = acc;
  recv_gap_ = 0.0;
  event_start_ = ev_start;
  events_ = events;
  std::vector<LossRecord>{}.swap(loss_log_);
  log_head_ = 0;
}

}  // namespace tfmcc
