#pragma once

#include <cstddef>
#include <vector>

#include "util/sim_time.hpp"

namespace tfmcc {

/// TFRC/TFMCC loss-interval history (paper §2.3, Appendices A and B).
///
/// Packet losses are aggregated into *loss events* (losses within one RTT of
/// the event start belong to the same event); the packet counts between
/// consecutive events are *loss intervals*.  The loss event rate p is the
/// inverse of the weighted average interval, where the open interval since
/// the last event is included only if that lowers p.
class LossHistory {
 public:
  /// `depth` is the number of closed intervals averaged (paper: 8–32).
  explicit LossHistory(int depth = 8);

  /// A packet arrived in order.
  void on_packet_received();

  /// A packet was detected lost; `loss_time` is the detection time and
  /// `rtt` the receiver's current RTT estimate (used for aggregation).
  /// Returns true if this loss started a new loss event.
  bool on_packet_lost(SimTime loss_time, SimTime rtt);

  /// Weighted average loss interval, including the open interval when that
  /// increases the average (== decreases p).  0 when no loss has occurred.
  double average_interval() const;

  /// Loss event rate p = 1 / average_interval(); 0 before the first loss.
  double loss_event_rate() const;

  bool has_loss() const { return !intervals_.empty(); }
  int event_count() const { return events_; }

  /// Appendix B: synthesise the history after the *first* loss event so the
  /// initial rate matches the bandwidth at which the loss occurred.  The
  /// caller computes `interval = 1/p` from the inverse control equation.
  void init_first_interval(double interval);

  /// Appendix B: rescale the synthetic initial interval when the first real
  /// RTT measurement replaces the (too high) initial RTT.  With the
  /// simplified model the interval shrinks by (rtt_real/rtt_init)^2; no-op
  /// if the synthetic interval has already left the history.
  void rescale_initial_interval(SimTime rtt_real, SimTime rtt_init);

  /// Appendix A: re-aggregate the recorded lost packets into loss events
  /// using a corrected RTT.  Rebuilds the closed intervals from the bounded
  /// per-loss record; the open interval is preserved.  Appendix A applies
  /// once, at the first RTT measurement, so this consumes the record: later
  /// losses are no longer logged, and a second call changes nothing.
  void reaggregate(SimTime rtt);

  /// Most recent first; index 0 is the newest *closed* interval.
  /// Ref-qualified like TimeSeries::points(): chaining intervals() off a
  /// temporary LossHistory moves the vector out instead of returning a
  /// reference into the dying temporary (PR 1's dangling pattern).
  const std::vector<double>& intervals() const& { return intervals_; }
  std::vector<double> intervals() && { return std::move(intervals_); }
  double open_interval() const { return open_count_; }

  /// The TFRC weight profile: 1 for the newest half of the history, then
  /// linearly decaying — {5,5,5,5,4,3,2,1}/5 for depth 8 (paper §2.3).
  /// One table per depth, shared by every history of that depth and kept
  /// for the life of the process.
  static const std::vector<double>& weights(int depth);

 private:
  void close_open_interval();

  // What every received packet and every loss touch comes first; the
  // vectors' out-of-line data is read only when p is evaluated.
  double open_count_{0.0};  // packets since current event started
  double recv_gap_{0.0};    // packets received since the last recorded loss
  SimTime event_start_{SimTime::infinity()};  // start of current loss event
  int depth_;
  int events_{0};
  bool initial_synthetic_{false};  // init_first_interval() value still live
  double synthetic_value_{0.0};
  const double* weights_;  // weights(depth_), shared
  std::vector<double> intervals_;  // closed intervals, most recent first

  // Bounded per-lost-packet record for reaggregation (Appendix A): each
  // loss with the packets received since the previous one, in a ring of the
  // newest kMaxLossLog whose oldest entry is loss_log_[log_head_].  Empty
  // until the first loss, and released by reaggregate().
  struct LossRecord {
    SimTime t;
    double pkts_before;
  };
  std::vector<LossRecord> loss_log_;
  std::size_t log_head_{0};
  bool log_open_{true};  // reaggregate() has not run yet
  static constexpr std::size_t kMaxLossLog = 256;
};

}  // namespace tfmcc
