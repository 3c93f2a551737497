#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

namespace tfmcc {

NodeId Topology::add_node() {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id));
  adjacency_.emplace_back();
  return id;
}

NodeId Topology::add_nodes(int count) {
  const NodeId first = static_cast<NodeId>(nodes_.size());
  for (int i = 0; i < count; ++i) add_node();
  return first;
}

Link& Topology::add_link(NodeId from, NodeId to, const LinkConfig& cfg) {
  auto& dst = node(to);
  links_.push_back(std::make_unique<Link>(
      sim_, dst, cfg, sim_.make_rng(rng_stream_counter_++)));
  Link* l = links_.back().get();
  adjacency_.at(static_cast<std::size_t>(from)).emplace_back(to, l);
  adjacency_index_dirty_ = true;
  return *l;
}

std::pair<Link*, Link*> Topology::add_duplex_link(NodeId a, NodeId b,
                                                  const LinkConfig& cfg) {
  Link& ab = add_link(a, b, cfg);
  Link& ba = add_link(b, a, cfg);
  return {&ab, &ba};
}

Link* Topology::link_between(NodeId from, NodeId to) {
  if (adjacency_index_dirty_) {
    adjacency_sorted_ = adjacency_;
    for (auto& row : adjacency_sorted_) {
      // stable: among parallel links the first added stays first, so the
      // lower_bound hit picks the same link the old linear scan did.
      std::stable_sort(row.begin(), row.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
    }
    adjacency_index_dirty_ = false;
  }
  const auto& row = adjacency_sorted_.at(static_cast<std::size_t>(from));
  const auto it = std::lower_bound(
      row.begin(), row.end(), to,
      [](const std::pair<NodeId, Link*>& e, NodeId key) { return e.first < key; });
  return (it != row.end() && it->first == to) ? it->second : nullptr;
}

void Topology::compute_routes() {
  // Per-source Dijkstra.  Cost = (propagation delay, hop count); the
  // heap's deterministic tie-break on node id keeps route choice stable
  // across runs.  The distance table and heap storage are shared by all
  // sources.
  const int n = node_count();
  struct Dist {
    std::int64_t delay_ns = std::numeric_limits<std::int64_t>::max();
    int hops = std::numeric_limits<int>::max();
    Link* first_link = nullptr;  // first hop on the path src -> node
  };
  std::vector<Dist> dist;
  using QE = std::tuple<std::int64_t, int, NodeId>;
  std::vector<QE> pq;
  pq.reserve(static_cast<std::size_t>(n) * 2);
  const auto heap_greater = std::greater<>{};
  // Installs src's route table; returns whether src reaches all n nodes.
  const auto dijkstra = [&](NodeId src) {
    dist.assign(static_cast<std::size_t>(n), Dist{});
    pq.clear();
    dist[static_cast<std::size_t>(src)] = {0, 0, nullptr};
    pq.emplace_back(0, 0, src);
    int reached = 0;
    while (!pq.empty()) {
      std::pop_heap(pq.begin(), pq.end(), heap_greater);
      const auto [d, h, u] = pq.back();
      pq.pop_back();
      auto& du = dist[static_cast<std::size_t>(u)];
      if (d != du.delay_ns || h != du.hops) continue;  // stale entry
      ++reached;
      for (auto& [v, l] : adjacency_[static_cast<std::size_t>(u)]) {
        const std::int64_t nd = d + l->config().delay.count_nanos();
        const int nh = h + 1;
        auto& dv = dist[static_cast<std::size_t>(v)];
        if (nd < dv.delay_ns || (nd == dv.delay_ns && nh < dv.hops)) {
          dv.delay_ns = nd;
          dv.hops = nh;
          dv.first_link = (u == src) ? l : du.first_link;
          pq.emplace_back(nd, nh, v);
          std::push_heap(pq.begin(), pq.end(), heap_greater);
        }
      }
    }
    std::vector<Link*> table(static_cast<std::size_t>(n));
    for (std::size_t dst = 0; dst < table.size(); ++dst) {
      table[dst] = dist[dst].first_link;  // nullptr for src itself
    }
    node(src).set_route_table(std::move(table));
    return reached == n;
  };
  std::vector<char> reaches_all(static_cast<std::size_t>(n), 0);
  for (NodeId src = 0; src < n; ++src) {
    if (adjacency_[static_cast<std::size_t>(src)].size() != 1) {
      reaches_all[static_cast<std::size_t>(src)] = dijkstra(src) ? 1 : 0;
    }
  }
  // A node with exactly one outgoing link has no routing choice: every
  // path from it starts with that link, so its first hop to each
  // destination is that link and it reaches exactly what its neighbour
  // reaches.  When the neighbour reached every node, one default route is
  // the whole table.  Other single-link nodes (chains, a one-way link, a
  // disconnected part) run their own Dijkstra.
  for (NodeId src = 0; src < n; ++src) {
    const auto& out = adjacency_[static_cast<std::size_t>(src)];
    if (out.size() != 1) continue;
    const auto [next, link] = out.front();
    if (reaches_all[static_cast<std::size_t>(next)] != 0) {
      node(src).set_default_route(link, n);
    } else {
      dijkstra(src);
    }
  }
  // Routing change can alter multicast trees.
  for (auto& g : groups_) rebuild_tree(g);
}

SimTime Topology::path_delay(NodeId a, NodeId b) const {
  SimTime total = SimTime::zero();
  NodeId cur = a;
  int guard = node_count() + 1;
  while (cur != b) {
    Link* l = node(cur).route(b);
    if (l == nullptr || guard-- <= 0) return SimTime::infinity();
    total += l->config().delay;
    cur = l->destination().id();
  }
  return total;
}

GroupId Topology::create_group(NodeId source) {
  GroupState g;
  g.source = source;
  g.member_flags.resize(static_cast<std::size_t>(node_count()), 0);
  g.out_links.resize(static_cast<std::size_t>(node_count()));
  g.attached.resize(static_cast<std::size_t>(node_count()), 0);
  groups_.push_back(std::move(g));
  return static_cast<GroupId>(groups_.size() - 1);
}

void Topology::ensure_group_capacity(GroupState& g) {
  // Nodes can be added after create_group() (the late-join scenarios do);
  // every per-node array must grow together.  member_flags alone used to
  // grow in join(), leaving out_links indexed out of bounds at its
  // create_group()-time size.
  const auto n = static_cast<std::size_t>(node_count());
  if (g.member_flags.size() < n) g.member_flags.resize(n, 0);
  if (g.out_links.size() < n) g.out_links.resize(n);
  if (g.attached.size() < n) g.attached.resize(n, 0);
}

void Topology::join(GroupId gid, NodeId member) {
  auto& g = groups_.at(static_cast<std::size_t>(gid));
  ensure_group_capacity(g);
  g.members.insert(member);
  g.member_flags.at(static_cast<std::size_t>(member)) = 1;
  if (membership_mode_ == MembershipMode::kFullRebuild) {
    rebuild_tree(g);
  } else {
    graft(g, member);
  }
}

void Topology::leave(GroupId gid, NodeId member) {
  auto& g = groups_.at(static_cast<std::size_t>(gid));
  ensure_group_capacity(g);
  g.members.erase(member);
  const auto idx = static_cast<std::size_t>(member);
  if (idx < g.member_flags.size()) g.member_flags[idx] = 0;
  if (membership_mode_ == MembershipMode::kFullRebuild) {
    rebuild_tree(g);
  } else {
    prune(g, member);
  }
}

bool Topology::is_member(GroupId gid, NodeId n) const {
  assert(static_cast<std::size_t>(gid) < groups_.size());
  const auto& g = groups_[static_cast<std::size_t>(gid)];
  const auto idx = static_cast<std::size_t>(n);
  return idx < g.member_flags.size() && g.member_flags[idx] != 0;
}

bool Topology::is_attached(GroupId gid, NodeId n) const {
  assert(static_cast<std::size_t>(gid) < groups_.size());
  const auto& g = groups_[static_cast<std::size_t>(gid)];
  const auto idx = static_cast<std::size_t>(n);
  return idx < g.attached.size() && g.attached[idx] != 0;
}

int Topology::member_count(GroupId gid) const {
  return static_cast<int>(
      groups_.at(static_cast<std::size_t>(gid)).members.size());
}

const std::vector<Link*>& Topology::mcast_out_links(GroupId gid,
                                                    NodeId at) const {
  assert(static_cast<std::size_t>(gid) < groups_.size());
  const auto& g = groups_[static_cast<std::size_t>(gid)];
  const auto idx = static_cast<std::size_t>(at);
  if (idx >= g.out_links.size()) return empty_links_;
  return g.out_links[idx];
}

void Topology::rebuild_tree(GroupId gid) {
  rebuild_tree(groups_.at(static_cast<std::size_t>(gid)));
}

void Topology::rebuild_tree(GroupState& g) {
  // Reverse-path tree: each member walks its unicast route towards the
  // source; the reversed edges of that walk are the tree edges.  Every node
  // has a unique parent (its unicast next hop towards the source), so the
  // union of the walks is a tree and no node receives duplicate copies.
  // The attached flags persist on the group: they are exactly the state the
  // incremental graft/prune maintenance keys off, so a full rebuild and any
  // later incremental events compose.
  ensure_group_capacity(g);
  for (auto& v : g.out_links) v.clear();
  g.attached.assign(static_cast<std::size_t>(node_count()), 0);
  if (g.source == kInvalidNode) return;
  for (NodeId m : g.members) graft(g, m);
}

void Topology::graft(GroupState& g, NodeId member) {
  // Walk the new member's reverse path towards the source, attaching nodes
  // until the walk meets an already-attached node (the shared trunk) or the
  // source itself.  This is the per-member walk of rebuild_tree, run once:
  // O(new branch length) per join instead of O(members x path length).
  if (g.source == kInvalidNode) return;
  NodeId cur = member;
  int guard = node_count() + 1;
  while (cur != g.source) {
    const auto ci = static_cast<std::size_t>(cur);
    if (g.attached[ci]) break;  // shared trunk
    Link* toward_src = node(cur).route(g.source);
    if (toward_src == nullptr || guard-- <= 0) {
      throw std::logic_error("multicast member unreachable from source; "
                             "did you call compute_routes()?");
    }
    const NodeId parent = toward_src->destination().id();
    Link* down = link_between(parent, cur);
    if (down == nullptr) {
      throw std::logic_error("asymmetric path: no reverse link for tree");
    }
    g.attached[ci] = 1;
    g.out_links[static_cast<std::size_t>(parent)].push_back(down);
    cur = parent;
  }
}

void Topology::prune(GroupState& g, NodeId member) {
  // Pop the unique leaf path above the departed member: a node leaves the
  // tree while it has no remaining tree children and is not a member in its
  // own right.  The walk stops at the first node some other member still
  // needs — an interior node keeps forwarding even after its own leave.
  if (g.source == kInvalidNode) return;
  NodeId cur = member;
  int guard = node_count() + 1;
  while (cur != g.source) {
    const auto ci = static_cast<std::size_t>(cur);
    if (!g.attached[ci] || !g.out_links[ci].empty() ||
        g.member_flags[ci] != 0) {
      break;
    }
    Link* toward_src = node(cur).route(g.source);
    if (toward_src == nullptr || guard-- <= 0) {
      throw std::logic_error("multicast member unreachable from source; "
                             "did you call compute_routes()?");
    }
    const NodeId parent = toward_src->destination().id();
    Link* down = link_between(parent, cur);
    auto& fan_out = g.out_links[static_cast<std::size_t>(parent)];
    const auto it = std::find(fan_out.begin(), fan_out.end(), down);
    assert(it != fan_out.end());
    if (it != fan_out.end()) fan_out.erase(it);
    g.attached[ci] = 0;
    cur = parent;
  }
}

}  // namespace tfmcc
