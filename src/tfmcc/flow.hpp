#pragma once

#include <memory>
#include <vector>

#include "mcast/session.hpp"
#include "tfmcc/receiver.hpp"
#include "tfmcc/receiver_block.hpp"
#include "tfmcc/sender.hpp"
#include "util/stats.hpp"

namespace tfmcc {

/// Convenience bundle for experiments: one TFMCC sender plus its receiver
/// set, each receiver binning its goodput in 1 s bins.  This is the public
/// "just give me a flow" API used by the figure and app scenarios.
class TfmccFlow {
 public:
  /// RNG substream base of a flow given none.
  static constexpr std::uint64_t kDefaultRngStream = 7000;

  /// `data_port`/`control_port` default to the historical single-session
  /// convention; concurrent flows over one topology must be given disjoint
  /// pairs (SessionManager does this automatically).
  TfmccFlow(Simulator& sim, Topology& topo, NodeId source,
            TfmccConfig cfg = {},
            std::uint64_t rng_stream = kDefaultRngStream,
            PortId data_port = kTfmccDataPort,
            PortId control_port = kTfmccSenderPort)
      : sim_{sim},
        cfg_{cfg},
        session_{topo, source, data_port, control_port},
        sender_{std::make_unique<TfmccSender>(sim, session_, cfg)},
        rng_stream_{rng_stream} {}

  /// Create a receiver on `node` (not yet joined).  Returns its index.
  int add_receiver(NodeId node) {
    const auto id = static_cast<std::int32_t>(receivers_.size());
    receivers_.push_back(sim_.arena().make<TfmccReceiver>(
        sim_, session_, node, id, cfg_, sim_.make_rng(rng_stream_ + 1 + id)));
    return id;
  }

  /// Add-and-join in one step.
  int add_joined_receiver(NodeId node) {
    const int id = add_receiver(node);
    receivers_[static_cast<std::size_t>(id)]->join();
    return id;
  }

  /// Create a modeled-receiver block on `tap` standing in for `count`
  /// receivers (hybrid tier; not yet joined).  Returns the block index.
  /// Modeled receiver ids live in [kModeledIdBase, ...), disjoint from the
  /// full tier's dense 0-based ids.
  int add_modeled_block(NodeId tap, int count,
                        SimTime extra_owd_min = SimTime::zero(),
                        SimTime extra_owd_max = SimTime::zero()) {
    const auto idx = static_cast<int>(blocks_.size());
    ModeledReceiverBlock::BlockConfig bc;
    bc.count = count;
    bc.base_id = kModeledIdBase + next_modeled_id_;
    bc.extra_owd_min = extra_owd_min;
    bc.extra_owd_max = extra_owd_max;
    next_modeled_id_ += count;
    blocks_.push_back(std::make_unique<ModeledReceiverBlock>(
        sim_, session_, tap, bc, cfg_,
        sim_.make_rng(rng_stream_ + kModeledRngOffset + idx)));
    return idx;
  }

  ModeledReceiverBlock& block(int idx) {
    return *blocks_.at(static_cast<std::size_t>(idx));
  }
  int block_count() const { return static_cast<int>(blocks_.size()); }

  TfmccSender& sender() { return *sender_; }
  const TfmccSender& sender() const { return *sender_; }
  MulticastSession& session() { return session_; }
  TfmccReceiver& receiver(int id) {
    return *receivers_.at(static_cast<std::size_t>(id));
  }
  const ThroughputBinner& goodput(int id) const {
    return receivers_.at(static_cast<std::size_t>(id))->goodput();
  }
  int receiver_count() const { return static_cast<int>(receivers_.size()); }

  int receivers_with_rtt() const {
    int n = 0;
    for (const auto& r : receivers_) {
      if (r->has_rtt_measurement()) ++n;
    }
    for (const auto& b : blocks_) n += b->receivers_with_rtt();
    return n;
  }

  std::int64_t total_feedback_sent() const {
    std::int64_t n = 0;
    for (const auto& r : receivers_) n += r->feedback_sent();
    for (const auto& b : blocks_) n += b->feedback_sent();
    return n;
  }

 private:
  /// Modeled receiver ids start here so they can never collide with the
  /// full tier's dense 0-based ids (the sender tracks both uniformly).
  static constexpr std::int32_t kModeledIdBase = 1'000'000;
  /// RNG substream offset for blocks (full receivers use stream + 1 + id).
  static constexpr std::uint64_t kModeledRngOffset = 500'000;

  Simulator& sim_;
  TfmccConfig cfg_;
  MulticastSession session_;
  std::unique_ptr<TfmccSender> sender_;
  // Receivers live in the Simulator's arena next to the hosts' links, so
  // the flow must not outlive the Simulator.
  std::vector<ArenaPtr<TfmccReceiver>> receivers_;
  std::vector<std::unique_ptr<ModeledReceiverBlock>> blocks_;
  std::uint64_t rng_stream_;
  std::int32_t next_modeled_id_{0};
};

}  // namespace tfmcc
