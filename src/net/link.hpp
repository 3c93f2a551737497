#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

class Node;

/// Configuration of a unidirectional link.
struct LinkConfig {
  double rate_bps{1e6};          // transmission rate in bits/second
  SimTime delay{SimTime::millis(10)};  // propagation delay
  std::size_t queue_limit_packets{50}; // ns-2's default DropTail limit
  double loss_rate{0.0};         // independent Bernoulli loss probability
  bool use_red{false};           // RED instead of drop-tail (ablation)
  /// Random per-packet processing jitter added to the propagation delay,
  /// uniform in [0, jitter].  Perfectly deterministic delays phase-lock
  /// ACK-clocked TCP arrivals to queue departures at a full drop-tail
  /// queue ("phase effects", Floyd & Jacobson 1992), starving paced flows;
  /// jitter on the order of one bottleneck packet service time breaks the
  /// lock, as ns-2's random processing overhead did.  Defaults to zero so
  /// unit tests stay exactly deterministic; the experiment scenarios
  /// enable it.
  SimTime jitter{SimTime::zero()};
};

class Link;

/// The links one multicast fan-out takes from idle to busy with the same
/// transmission time `tx`, all sending `packet`.  Their transmissions end
/// at the same instant and complete together in one scheduler event
/// (Node::forward_multicast states why that keeps event order exact).
struct TransmitBatch {
  PacketPtr packet;
  SimTime tx{};
  std::vector<Link*> links;  // in fan-out order
};

/// A unidirectional point-to-point link: output queue + transmitter +
/// propagation delay + optional Bernoulli loss model.
///
/// Transmission is serialised: a packet occupies the transmitter for
/// `size * 8 / rate` seconds, then propagates for `delay` and is handed to
/// the destination node.  The loss model drops packets on arrival at the
/// link (before queueing), modelling ns-2's error-model-on-link setup used
/// for the paper's lossy-path experiments.
///
/// Each transmission costs a transmit-complete event and an arrival event,
/// except on a multicast fan-out hop: there the links the fan-out starts
/// transmitting share one completion event (a TransmitBatch), so a copy
/// costs about one event, its arrival.
class Link {
 public:
  Link(Simulator& sim, Node& to, LinkConfig cfg, Rng rng);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Submit a packet for transmission (may be dropped by loss model/queue).
  /// Takes a reference so multicast fan-out shares one PacketPtr across all
  /// branches without per-branch refcount churn; the queue copies once on
  /// accept.  With a `batch` whose packet is `p`, a transmission this call
  /// starts joins the batch instead of scheduling its own completion when
  /// the batch is empty or has the same transmission time; the caller then
  /// schedules the batch's one completion event.
  void send(const PacketPtr& p, TransmitBatch* batch = nullptr);

  /// Completes every transmission in `b`, in its link order: exactly what
  /// the links' own completion events would have done back to back.
  static void complete(const TransmitBatch& b);

  const LinkConfig& config() const { return cfg_; }
  Node& destination() { return to_; }
  const Node& destination() const { return to_; }

  SimTime transmission_time(std::int32_t bytes) const {
    return SimTime::seconds(static_cast<double>(bytes) * 8.0 / cfg_.rate_bps);
  }

  // Counters for experiment harnesses.
  std::int64_t delivered_packets() const { return delivered_; }
  std::int64_t delivered_bytes() const { return delivered_bytes_; }
  std::int64_t queue_drops() const { return queue_->drops(); }
  std::int64_t loss_model_drops() const { return loss_drops_; }
  const Queue& queue() const { return *queue_; }

  /// Change the Bernoulli loss rate mid-experiment (fig. 11 join/leave
  /// scenarios reconfigure paths while the simulation runs).
  void set_loss_rate(double p) { cfg_.loss_rate = p; }
  /// Change the propagation delay mid-experiment (fig. 13 RTT changes).
  void set_delay(SimTime d) { cfg_.delay = d; }

 private:
  void start_transmission(TransmitBatch* batch = nullptr);
  void on_transmit_complete(PacketPtr p);

  Simulator& sim_;
  Node& to_;
  LinkConfig cfg_;
  Rng rng_;
  std::unique_ptr<Queue> queue_;
  // Non-null when queue_ is the (overwhelmingly common) drop-tail queue:
  // lets the two per-hop queue calls go direct instead of virtual.
  DropTailQueue* droptail_{nullptr};
  bool transmitting_{false};
  SimTime last_arrival_{};  // FIFO guard: deliveries never reorder
  std::int64_t delivered_{0};
  std::int64_t delivered_bytes_{0};
  std::int64_t loss_drops_{0};
};

}  // namespace tfmcc
