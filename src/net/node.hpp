#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

class Topology;

/// A protocol endpoint attached to a node port (TCP sender/sink, TFMCC
/// sender/receiver, ...).  `handle_packet` is invoked for every packet
/// delivered to the agent's port, including multicast deliveries for groups
/// the node has joined.
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void handle_packet(const Packet& p) = 0;
  /// Number of protocol endpoints this agent stands in for.  1 for ordinary
  /// agents; a modeled-receiver block reports its receiver count so delivery
  /// accounting can weigh one physical delivery as N logical ones.
  virtual int endpoint_count() const { return 1; }
};

/// A network node: forwards packets according to the topology's routing
/// tables and delivers local traffic to attached agents.
class Node {
 public:
  Node(Topology& topo, NodeId id) : topo_{topo}, id_{id} {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  /// Bind an agent to a local port.  The agent must outlive the node.
  void attach_agent(PortId port, Agent* agent);
  void detach_agent(PortId port);

  /// Entry point for packets arriving from a link (or injected locally).
  void receive(const PacketPtr& p);

  /// Entry point for agents sending a packet originating at this node.
  void send(const PacketPtr& p);

  /// Routing: next-hop link for a unicast destination, nullptr when there
  /// is none (unreachable, the node itself, or out of range).
  Link* route(NodeId dst) const;

  std::int64_t forwarded() const { return forwarded_; }
  std::int64_t delivered_local() const { return delivered_local_; }
  /// Deliveries weighted by the receiving agent's endpoint_count(): the
  /// number of *logical* endpoints reached (equals delivered_local() unless
  /// a modeled-receiver block is attached).
  std::int64_t delivered_endpoints() const { return delivered_endpoints_; }

 private:
  // Routing state is written only by Topology::compute_routes; each setter
  // replaces the other kind, so a node never holds both.
  friend class Topology;
  /// A dense next-hop table indexed by destination NodeId.
  void set_route_table(std::vector<Link*> table);
  /// `next_hop` for every destination in [0, span) except this node.
  void set_default_route(Link* next_hop, NodeId span);

  void deliver_local(const PacketPtr& p);
  void forward_unicast(const PacketPtr& p);
  void forward_multicast(const PacketPtr& p);
  void recycle(std::unique_ptr<TransmitBatch> b);

  Topology& topo_;
  NodeId id_;
  // A node hosts a handful of agents at most; a flat (port, agent) table
  // beats a hash map for the per-delivery port lookup.
  std::vector<std::pair<PortId, Agent*>> agents_;
  // A node with one outgoing link whose neighbour reaches every node has
  // no routing choice and keeps only that link; any other node keeps a
  // table.
  Link* default_route_{nullptr};
  NodeId default_route_span_{0};
  std::vector<Link*> routes_;  // indexed by destination NodeId
  // Cleared fan-out batches for reuse: one per fan-out still in
  // transmission at peak, so steady-state fan-out allocates nothing.
  std::vector<std::unique_ptr<TransmitBatch>> free_batches_;
  std::int64_t forwarded_{0};
  std::int64_t delivered_local_{0};
  std::int64_t delivered_endpoints_{0};
};

}  // namespace tfmcc
