#include "tfmcc/receiver_core.hpp"

#include <limits>

namespace tfmcc {

bool ReceiverCore::on_data(const TfmccDataHeader& h, SimTime now, SimTime rtt,
                           const TfmccConfig& cfg) {
  // Loss detection must precede counting this packet as received, so the
  // loss interval boundaries stay exact.
  const auto seq_result = seq.on_seqno(h.seqno);
  if (seq_result.duplicate) return false;
  if (seq_result.lost > 0) {
    const bool first_ever = !loss.has_loss();
    bool new_event = false;
    for (std::int64_t i = 0; i < seq_result.lost; ++i) {
      new_event |= loss.on_packet_lost(now, rtt);
    }
    if (first_ever && new_event) {
      // Appendix B: synthesise the initial loss interval from the rate at
      // which the first loss occurred.  During slowstart the sender may
      // overshoot to at most 2x the bottleneck bandwidth, so the receive
      // rate at first loss ~= the bottleneck rate; inverting the control
      // equation at that rate yields the interval that makes the calculated
      // rate equal the available bandwidth.
      double rate_at_loss = recv_rate.rate_Bps(now);
      if (rate_at_loss <= 0.0) rate_at_loss = h.send_rate_Bps * 0.5;
      if (rate_at_loss > 0.0) {
        const double p_init =
            cfg.equation->loss_for_throughput(kDataPacketBytes, rtt,
                                              rate_at_loss);
        loss.init_first_interval(1.0 / p_init);
      }
    }
  }
  loss.on_packet_received();
  recv_rate.on_packet(now);
  last_data_send_ts = h.send_ts;
  last_data_arrival = now;
  return true;
}

double ReceiverCore::calc_rate_Bps(SimTime rtt, const TfmccConfig& cfg) const {
  const double p = loss.loss_event_rate();
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  return cfg.equation->throughput_Bps(kDataPacketBytes, rtt, p);
}

bool ReceiverCore::suppressed(const SuppressionEcho& e, SimTime now,
                              SimTime rtt, const TfmccConfig& cfg) const {
  if (e.rate_Bps < 0.0) return false;
  if (e.slowstart) {
    if (loss.has_loss() && !e.has_loss) return false;
    if (!loss.has_loss() && e.has_loss) return true;
  }
  return delta_cancels(e.rate_Bps, own_rate_Bps(e.slowstart, now, rtt, cfg),
                       cfg.delta);
}

TfmccFeedbackHeader ReceiverCore::report(std::int32_t id, SimTime rtt,
                                         bool has_rtt, SimTime now,
                                         SimTime detour,
                                         const TfmccConfig& cfg) const {
  TfmccFeedbackHeader h;
  h.receiver = id;
  h.round = round;
  // -1 is the "no estimate yet" sentinel: the sender treats any negative
  // calc rate as a keepalive / receive-rate-only report (its eff < 0
  // branches), so the two sides agree on the encoding.
  const double calc = calc_rate_Bps(rtt, cfg);
  h.calc_rate_Bps = std::isfinite(calc) ? calc : -1.0;
  h.recv_rate_Bps = recv_rate.rate_Bps(now);
  h.loss_event_rate = loss.loss_event_rate();
  h.has_rtt = has_rtt;
  h.rtt = rtt;
  h.has_loss = loss.has_loss();
  h.ts = now;
  h.echo_ts = last_data_send_ts;
  const SimTime hold = last_data_arrival.is_infinite()
                           ? SimTime::zero()
                           : now - last_data_arrival;
  h.echo_delay = std::max(SimTime::zero(), hold - detour);
  return h;
}

}  // namespace tfmcc
