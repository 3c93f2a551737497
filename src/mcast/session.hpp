#pragma once

#include <algorithm>
#include <cstdint>

#include "net/packet.hpp"
#include "net/topology.hpp"

namespace tfmcc {

/// A multicast session: one source-rooted group plus the port convention
/// that binds receiver agents to group deliveries.  This is the layer the
/// TFMCC sender/receiver (and any other multicast application) talk to,
/// keeping group-management details out of the protocol code.
///
/// A session owns a (data_port, control_port) pair: data packets fan out to
/// `data_port` on every member node, feedback flows unicast back to
/// `control_port` on the source.  Concurrent sessions sharing nodes must use
/// disjoint pairs (SessionManager allocates them); the defaults match the
/// historical single-session port convention (kTfmccSenderPort = 1).
class MulticastSession {
 public:
  MulticastSession(Topology& topo, NodeId source, PortId data_port,
                   PortId control_port = 1)
      : topo_{topo},
        source_{source},
        data_port_{data_port},
        control_port_{control_port},
        group_{topo.create_group(source)} {}

  GroupId group() const { return group_; }
  NodeId source() const { return source_; }
  PortId data_port() const { return data_port_; }
  PortId control_port() const { return control_port_; }
  Topology& topology() { return topo_; }

  /// Subscribe `member`'s agent (already attached to `data_port` on that
  /// node) to the session.  Grafts the node onto the distribution tree.
  void join(NodeId member) { topo_.join(group_, member); }

  /// Unsubscribe; prunes the distribution tree.
  void leave(NodeId member) { topo_.leave(group_, member); }

  bool is_member(NodeId n) const { return topo_.is_member(group_, n); }
  int member_count() const { return topo_.member_count(group_); }

  /// Modeled-receiver accounting (hybrid full/model tier): a
  /// ModeledReceiverBlock registers how many receivers it stands in for.
  /// member_count() counts tree members — a block's tap node is one member —
  /// so harnesses that want the logical receiver population add
  /// modeled_count() minus the tap nodes themselves; total_endpoint_count()
  /// does that bookkeeping.
  void add_modeled(int n) {
    modeled_ += n;
    ++modeled_taps_;
  }
  /// Mismatched removes (more receivers or taps than were ever added) used
  /// to drive the counters negative and silently corrupt
  /// total_endpoint_count(); clamp at zero so the count degrades to "no
  /// modeled receivers" instead.
  void remove_modeled(int n) {
    modeled_ = std::max(0, modeled_ - n);
    modeled_taps_ = std::max(0, modeled_taps_ - 1);
  }
  int modeled_count() const { return modeled_; }
  int modeled_taps() const { return modeled_taps_; }
  /// Logical receiver endpoints in the session: full members plus modeled
  /// receivers (each block's tap member replaced by its block population).
  int total_endpoint_count() const {
    return member_count() - modeled_taps_ + modeled_;
  }

  /// Inject a packet at the source and replicate it down the tree.
  void send_from_source(const PacketPtr& p) { topo_.node(source_).send(p); }

  /// Unicast a TFMCC receiver report of `bytes` from `member` to the
  /// source's control port.
  void send_report(NodeId member, std::int32_t bytes,
                   const TfmccFeedbackHeader& h) {
    auto fb = topo_.sim().make_packet();
    fb->src = member;
    fb->dst = source_;
    fb->sport = data_port_;
    fb->dport = control_port_;
    fb->size_bytes = bytes;
    fb->header = h;
    topo_.node(member).send(std::move(fb));
  }

 private:
  Topology& topo_;
  NodeId source_;
  PortId data_port_;
  PortId control_port_;
  GroupId group_;
  int modeled_{0};       // modeled receivers currently joined via blocks
  int modeled_taps_{0};  // tap nodes hosting those blocks
};

}  // namespace tfmcc
