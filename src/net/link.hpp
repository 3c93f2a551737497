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
/// Completing them fills `arrivals`, one per link: the copies' arrival run,
/// which the fan-out's node delivers from one scheduler entry.
struct TransmitBatch {
  /// One copy's arrival, under the sequence number its own arrival event
  /// would have had.
  struct Arrival {
    SimTime t;
    std::uint64_t seq;
    Node* node;
  };

  /// Orders `arrivals` by (t, seq), the order their own events would have
  /// run in.  They are appended in seq order, so a stable sort on t alone
  /// does it: insertion sort for a short run, else an LSD radix sort on
  /// t - t_min through `scratch`.
  void sort_arrivals();

  PacketPtr packet;
  SimTime tx{};
  std::vector<Link*> links;  // in fan-out order
  std::vector<Arrival> arrivals;
  std::vector<Arrival> scratch;  // the radix sort's second buffer
  std::size_t next_arrival{0};   // the run's next undelivered copy
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
/// transmitting share one completion event (a TransmitBatch), and their
/// copies arrive from one arrival run, a single scheduler entry re-keyed
/// from copy to copy.  A copy then costs one executed event, its arrival,
/// but no pending entry, slot or callback of its own; and while no other
/// pending event comes before it, the run delivers it in the previous
/// copy's frame (Scheduler::take_next), without a heap pop or re-insert.
///
/// An idle drop-tail link hands a packet straight to its transmitter: the
/// queue counts it as accepted but never holds it.  So a copy sent down an
/// idle host link touches the link's two lines and the first line of its
/// queue, which the arena places right behind it.
class alignas(64) Link {
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
  /// the links' own completion events would have done back to back, except
  /// that each arrival is appended to `b.arrivals` under a reserved
  /// sequence number instead of being scheduled.
  static void complete(TransmitBatch& b);

  const LinkConfig& config() const { return cfg_; }
  Node& destination() { return to_; }
  const Node& destination() const { return to_; }

  SimTime transmission_time(std::int32_t bytes) const {
    return SimTime::seconds(static_cast<double>(bytes) * 8.0 / cfg_.rate_bps);
  }

  // Counters for experiment harnesses.  Every accepted packet is queued,
  // in transmission or delivered, so the delivered count needs no field.
  std::int64_t delivered_packets() const {
    const auto queued = static_cast<std::int64_t>(queue_->size_packets());
    return queue_->accepted() - queued - (transmitting_ ? 1 : 0);
  }
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
  void transmit(const PacketPtr& p, TransmitBatch* batch);
  void on_transmit_complete(PacketPtr p);
  /// When the finished transmission reaches the far end (delay, jitter and
  /// the FIFO guard applied).
  SimTime arrival_time();
  /// Frees the transmitter and starts the next queued packet, if any.
  void transmit_next();
  // The drop-tail queue (every link but RED ones), called direct instead of
  // virtual on the per-hop path.
  DropTailQueue* droptail() const {
    return cfg_.use_red ? nullptr : static_cast<DropTailQueue*>(queue_.get());
  }

  // Line 0: where the copy goes and how long it takes.
  Node& to_;
  Simulator& sim_;
  LinkConfig cfg_;
  // Line 1: the jitter stream and the transmitter's state.
  Rng rng_;
  ArenaPtr<Queue> queue_;
  SimTime last_arrival_{};  // FIFO guard: deliveries never reorder
  std::int64_t loss_drops_{0};
  bool transmitting_{false};
};

// A field added to Link spills the per-copy state onto a third line.
static_assert(sizeof(Link) == 2 * 64, "Link outgrew its two lines");

}  // namespace tfmcc
