#pragma once

#include <vector>

#include "net/topology.hpp"

namespace tfmcc {

// Both builders return with routes computed (Topology::compute_routes has
// run), so callers need not call it again unless they add nodes or links.

/// The classic single-bottleneck ("dumbbell") topology of fig. 8: n_left
/// sender hosts and n_right receiver hosts joined by one bottleneck link
/// between two routers.
struct Dumbbell {
  NodeId left_router{kInvalidNode};
  NodeId right_router{kInvalidNode};
  std::vector<NodeId> left_hosts;
  std::vector<NodeId> right_hosts;
  Link* bottleneck_fwd{nullptr};  // left -> right direction
  Link* bottleneck_rev{nullptr};
};

Dumbbell make_dumbbell(Topology& topo, int n_left, int n_right,
                       const LinkConfig& bottleneck, const LinkConfig& access);

/// Star/hub topology used by the responsiveness experiments (§4.2): one
/// sender and k receivers, each behind its own configurable link to the hub.
struct Star {
  NodeId hub{kInvalidNode};
  NodeId sender{kInvalidNode};
  std::vector<NodeId> leaves;
  /// Per-leaf (hub->leaf, leaf->hub) links, for mid-run reconfiguration.
  std::vector<std::pair<Link*, Link*>> leaf_links;
};

Star make_star(Topology& topo, const LinkConfig& sender_link,
               const std::vector<LinkConfig>& leaf_cfgs);

}  // namespace tfmcc
