#pragma once

#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace tfmcc {

/// How group membership changes are folded into the distribution trees.
/// Incremental graft/prune is the default: a join walks only the new
/// member's reverse path until it meets the tree, a leave pops the unique
/// leaf path — O(path length) per event instead of O(members x path).
/// Full rebuild recomputes the whole tree from the member set on every
/// event (the historical behaviour); it stays available as the oracle the
/// churn property tests and BM_MembershipChurn compare against.
enum class MembershipMode { kIncremental, kFullRebuild };

/// Owns the nodes and links of an experiment, computes unicast routes
/// (Dijkstra over propagation delay) and maintains multicast distribution
/// trees (reverse-shortest-path trees, as dense-mode multicast routing
/// builds them in ns-2).
class Topology {
 public:
  explicit Topology(Simulator& sim) : sim_{sim} {}

  // --- construction -------------------------------------------------------
  NodeId add_node();
  NodeId add_nodes(int count);  // returns id of the first added node

  /// Unidirectional link from -> to.
  Link& add_link(NodeId from, NodeId to, const LinkConfig& cfg);
  /// Two unidirectional links with identical configuration.
  std::pair<Link*, Link*> add_duplex_link(NodeId a, NodeId b,
                                          const LinkConfig& cfg);

  /// (Re)compute all unicast routes.  Must be called after the last link is
  /// added and before traffic starts.  Cost metric: propagation delay, ties
  /// broken by hop count, then by node id (deterministic).  A node with one
  /// outgoing link whose neighbour reaches every node keeps just that link
  /// as its default route; every other node (the hubs, plus chains and
  /// one-way or disconnected leaves) runs Dijkstra and keeps a next-hop
  /// table.  Cost: O(hubs x E log V) time and O(hubs x N) memory, so N leaf
  /// hosts on a few routers no longer pay the all-pairs O(N^2).
  void compute_routes();

  // --- access --------------------------------------------------------------
  Node& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  const Node& node(NodeId id) const {
    return *nodes_.at(static_cast<std::size_t>(id));
  }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  Simulator& sim() { return sim_; }

  /// The link from `from` to its neighbour `to`, nullptr if not adjacent.
  /// With parallel links the first one added wins, as before; lookups go
  /// through a lazily (re)built sorted index, so tree rebuilds at a
  /// 1000-leaf hub cost a binary search instead of a hub-degree scan.
  Link* link_between(NodeId from, NodeId to);

  // --- multicast ------------------------------------------------------------
  /// Create a source-rooted multicast group.  All traffic for the group must
  /// originate at `source`.
  GroupId create_group(NodeId source);
  void join(GroupId g, NodeId member);
  void leave(GroupId g, NodeId member);
  bool is_member(GroupId g, NodeId n) const;
  int member_count(GroupId g) const;

  /// Distribution-tree fan-out at `at` for group `g` (empty when none).
  const std::vector<Link*>& mcast_out_links(GroupId g, NodeId at) const;

  /// True when `n` carries tree state for group `g` (it is on the
  /// distribution path from the source to some member).  The source itself
  /// is never "attached"; it is the tree root.
  bool is_attached(GroupId g, NodeId n) const;

  /// Recompute group `g`'s whole tree from its member set.  Behaviour-
  /// identical to a leave+rejoin of every member in ascending id order;
  /// exposed as the oracle the churn property tests compare the
  /// incremental graft/prune maintenance against.
  void rebuild_tree(GroupId g);

  /// Selects incremental graft/prune (default) or full per-event rebuild.
  /// Applies to subsequent join/leave calls; existing trees are untouched
  /// (both modes maintain the same invariants, so switching mid-run is
  /// safe).
  void set_membership_mode(MembershipMode m) { membership_mode_ = m; }
  MembershipMode membership_mode() const { return membership_mode_; }

  /// Total end-to-end propagation delay of the unicast path a -> b,
  /// +inf when unreachable.  (Diagnostics and tests.)
  SimTime path_delay(NodeId a, NodeId b) const;

 private:
  struct GroupState {
    NodeId source{kInvalidNode};
    std::set<NodeId> members;
    // Direct-indexed membership mirror of `members`: is_member() runs once
    // per node per multicast packet (the hottest query in large-receiver
    // scenarios), so it must be an array load, not a tree search.
    std::vector<char> member_flags;
    // out_links[node] = tree child links at that node.
    std::vector<std::vector<Link*>> out_links;
    // attached[node] = 1 when the node has an incoming tree edge (it lies on
    // the path from the source to some member).  This is what makes graft
    // and prune O(path): a graft walk stops at the first attached node, a
    // prune walk pops leaf nodes until it reaches one that is attached for
    // somebody else (non-empty fan-out or a member in its own right).
    std::vector<char> attached;
  };

  void rebuild_tree(GroupState& g);
  /// Incremental graft: walk `member`'s reverse path towards the source,
  /// attaching nodes until the walk meets an already-attached node (or the
  /// source).  Exactly the per-member walk of rebuild_tree.
  void graft(GroupState& g, NodeId member);
  /// Incremental prune: pop the unique leaf path above `member` while the
  /// node has no tree children and is not a member itself.
  void prune(GroupState& g, NodeId member);
  /// Grow the group's per-node arrays to the current node count, so nodes
  /// added after create_group() are always in range (join() used to grow
  /// member_flags only, leaving out_links indexed out of bounds).
  void ensure_group_capacity(GroupState& g);

  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  // adjacency[from] = {(to, link)} for tree building and diagnostics.
  // Insertion order is meaningful (Dijkstra relaxation order, parallel-link
  // precedence) and must not be sorted in place.
  std::vector<std::vector<std::pair<NodeId, Link*>>> adjacency_;
  // Stable-sorted copy of adjacency_ for link_between(); rebuilt on demand
  // after topology edits.
  std::vector<std::vector<std::pair<NodeId, Link*>>> adjacency_sorted_;
  bool adjacency_index_dirty_{true};
  std::vector<GroupState> groups_;
  std::vector<Link*> empty_links_{};
  MembershipMode membership_mode_{MembershipMode::kIncremental};
  std::uint64_t rng_stream_counter_{1000};
};

}  // namespace tfmcc
