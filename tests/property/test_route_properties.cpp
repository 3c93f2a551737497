// Property tests for unicast route computation: on seeded random graphs,
// every node's next hop (Node::route) and every end-to-end path delay
// (Topology::path_delay) must equal what an all-pairs reference computes.
// The reference is the straightforward algorithm: Dijkstra from every node
// with a dense next-hop table per node.  compute_routes skips that work for
// nodes with a single outgoing link whose neighbour reaches every node, so
// the generator mixes in exactly the shapes where that shortcut must not
// fire or must be undone: chains of single-link nodes, one-way links,
// disconnected parts, parallel links, equal-delay ties, nodes added after
// compute_routes and a leaf that gains a second link before a recompute.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

using Adjacency = std::vector<std::vector<std::pair<NodeId, Link*>>>;

/// Builds a topology and mirrors its adjacency (in link insertion order,
/// which is the reference's relaxation order) for the reference.
struct Graph {
  explicit Graph(Topology& t) : topo{t} {}

  NodeId add_node() {
    adj.emplace_back();
    return topo.add_node();
  }
  void add_link(NodeId from, NodeId to, SimTime delay) {
    LinkConfig cfg;
    cfg.delay = delay;
    Link& l = topo.add_link(from, to, cfg);
    adj[static_cast<std::size_t>(from)].emplace_back(to, &l);
  }
  void add_duplex(NodeId a, NodeId b, SimTime delay) {
    add_link(a, b, delay);
    add_link(b, a, delay);
  }

  Topology& topo;
  Adjacency adj;
};

/// The all-pairs reference: table[src][dst] is the first link on src's
/// shortest path to dst, as a Dijkstra from every node finds it.
struct ReferenceRoutes {
  std::vector<std::vector<Link*>> table;

  Link* route(NodeId src, NodeId dst) const {
    const auto s = static_cast<std::size_t>(src);
    if (s >= table.size()) return nullptr;  // added after the computation
    const auto d = static_cast<std::size_t>(dst);
    return d < table[s].size() ? table[s][d] : nullptr;
  }

  bool reaches_all(NodeId src) const {
    const auto& row = table[static_cast<std::size_t>(src)];
    for (std::size_t d = 0; d < row.size(); ++d) {
      if (d != static_cast<std::size_t>(src) && row[d] == nullptr) {
        return false;
      }
    }
    return true;
  }

  SimTime path_delay(int node_count, NodeId a, NodeId b) const {
    SimTime total = SimTime::zero();
    NodeId cur = a;
    int guard = node_count + 1;
    while (cur != b) {
      Link* l = route(cur, b);
      if (l == nullptr || guard-- <= 0) return SimTime::infinity();
      total += l->config().delay;
      cur = l->destination().id();
    }
    return total;
  }
};

ReferenceRoutes all_pairs_routes(const Adjacency& adjacency) {
  // Dijkstra from every node.  Cost = (propagation delay, hop count), heap
  // tie-break on node id.
  const int n = static_cast<int>(adjacency.size());
  struct Dist {
    std::int64_t delay_ns = std::numeric_limits<std::int64_t>::max();
    int hops = std::numeric_limits<int>::max();
    Link* first_link = nullptr;
  };
  ReferenceRoutes out;
  out.table.assign(static_cast<std::size_t>(n),
                   std::vector<Link*>(static_cast<std::size_t>(n), nullptr));
  std::vector<Dist> dist;
  using QE = std::tuple<std::int64_t, int, NodeId>;
  std::vector<QE> pq;
  const auto heap_greater = std::greater<>{};
  for (NodeId src = 0; src < n; ++src) {
    dist.assign(static_cast<std::size_t>(n), Dist{});
    pq.clear();
    dist[static_cast<std::size_t>(src)] = {0, 0, nullptr};
    pq.emplace_back(0, 0, src);
    while (!pq.empty()) {
      std::pop_heap(pq.begin(), pq.end(), heap_greater);
      const auto [d, h, u] = pq.back();
      pq.pop_back();
      auto& du = dist[static_cast<std::size_t>(u)];
      if (d != du.delay_ns || h != du.hops) continue;
      for (auto& [v, l] : adjacency[static_cast<std::size_t>(u)]) {
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
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst != src) {
        out.table[static_cast<std::size_t>(src)]
                 [static_cast<std::size_t>(dst)] =
            dist[static_cast<std::size_t>(dst)].first_link;
      }
    }
  }
  return out;
}

/// Every route(dst) for dst in [-1, n+2) and every path_delay(a, b) for b
/// in the same range must match the reference.
void expect_matches(const Topology& topo, const ReferenceRoutes& ref,
                    const char* stage) {
  const int n = topo.node_count();
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = -1; dst < n + 2; ++dst) {
      ASSERT_EQ(topo.node(src).route(dst), ref.route(src, dst))
          << stage << ": route " << src << " -> " << dst << " (n=" << n
          << ")";
      ASSERT_EQ(topo.path_delay(src, dst).count_nanos(),
                ref.path_delay(n, src, dst).count_nanos())
          << stage << ": path_delay " << src << " -> " << dst;
    }
  }
}

/// Single-link nodes, split by whether their neighbour reaches every node
/// (a default route is exact) or not (their own Dijkstra is needed).
/// `defaulted[v]` is set for the former.
struct SingleLinkCensus {
  int defaulted = 0;
  int fallback = 0;
};

SingleLinkCensus census(const Adjacency& adj, const ReferenceRoutes& ref,
                        std::vector<char>& defaulted) {
  SingleLinkCensus c;
  defaulted.assign(adj.size(), 0);
  for (std::size_t v = 0; v < adj.size(); ++v) {
    if (adj[v].size() != 1) continue;
    if (ref.reaches_all(adj[v].front().first)) {
      ++c.defaulted;
      defaulted[v] = 1;
    } else {
      ++c.fallback;
    }
  }
  return c;
}

TEST(RouteProperties, MatchesAllPairsReferenceOnRandomGraphs) {
  constexpr int kGraphs = 200;
  SingleLinkCensus total;
  int moved_to_table = 0;  // default route -> table across a recompute
  int moved_to_default = 0;
  int late_nodes = 0;
  for (int seed = 1; seed <= kGraphs; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Simulator sim{static_cast<std::uint64_t>(seed)};
    Topology topo{sim};
    Graph g{topo};
    Rng rng{static_cast<std::uint64_t>(seed) * 7919};
    // Few distinct delays, so equal-delay ties (broken by hops, then node
    // id) are common.
    const auto delay = [&] {
      return SimTime::millis(rng.uniform_int(0, 3));
    };
    const auto pick = [&](const std::vector<NodeId>& v) {
      return v[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
    };

    // Hubs: a random tree plus extra (possibly parallel) duplex links.
    std::vector<NodeId> hubs;
    const int n_hubs = static_cast<int>(rng.uniform_int(1, 5));
    for (int k = 0; k < n_hubs; ++k) {
      hubs.push_back(g.add_node());
      if (k > 0) {
        g.add_duplex(hubs.back(),
                     hubs[static_cast<std::size_t>(rng.uniform_int(0, k - 1))],
                     delay());
      }
    }
    for (int e = static_cast<int>(rng.uniform_int(0, n_hubs)); e > 0; --e) {
      const NodeId a = pick(hubs);
      const NodeId b = pick(hubs);
      if (a != b) g.add_duplex(a, b, delay());
    }
    // Leaf hosts; a few get a parallel uplink (out-degree 2).
    for (int k = static_cast<int>(rng.uniform_int(0, 25)); k > 0; --k) {
      const NodeId hub = pick(hubs);
      const NodeId leaf = g.add_node();
      g.add_duplex(hub, leaf, delay());
      if (rng.bernoulli(0.1)) g.add_link(leaf, hub, delay());
    }
    // Duplex tail hub - a - b: b is a leaf on a two-link node.
    if (rng.bernoulli(0.3)) {
      const NodeId a = g.add_node();
      const NodeId b = g.add_node();
      g.add_duplex(pick(hubs), a, delay());
      g.add_duplex(a, b, delay());
    }
    // One-way ring through a hub: c1 -> c2 -> ... -> ck -> hub -> c1.
    // Every ci has one outgoing link; only ck's neighbour is a hub.
    if (rng.bernoulli(0.5)) {
      const NodeId hub = pick(hubs);
      std::vector<NodeId> chain;
      for (int k = static_cast<int>(rng.uniform_int(2, 4)); k > 0; --k) {
        chain.push_back(g.add_node());
      }
      g.add_link(hub, chain.front(), delay());
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        g.add_link(chain[i], chain[i + 1], delay());
      }
      g.add_link(chain.back(), hub, delay());
    }
    // One-way source: nobody reaches it, so no hub reaches every node.
    if (rng.bernoulli(0.2)) g.add_link(g.add_node(), pick(hubs), delay());
    // One-way sink: out-degree 0.
    if (rng.bernoulli(0.25)) g.add_link(pick(hubs), g.add_node(), delay());
    // Disconnected part: a mutual pair of single-link nodes, or a small
    // star of its own.
    if (rng.bernoulli(0.2)) {
      const NodeId a = g.add_node();
      if (rng.bernoulli(0.5)) {
        g.add_duplex(a, g.add_node(), delay());
      } else {
        for (int k = static_cast<int>(rng.uniform_int(1, 3)); k > 0; --k) {
          g.add_duplex(a, g.add_node(), delay());
        }
      }
    }
    // An isolated node whose only link is a self-loop.
    if (rng.bernoulli(0.05)) {
      const NodeId s = g.add_node();
      g.add_link(s, s, delay());
    }

    topo.compute_routes();
    ReferenceRoutes ref = all_pairs_routes(g.adj);
    std::vector<char> defaulted_before;
    const SingleLinkCensus c = census(g.adj, ref, defaulted_before);
    total.defaulted += c.defaulted;
    total.fallback += c.fallback;
    expect_matches(topo, ref, "first compute");
    if (::testing::Test::HasFatalFailure()) return;

    // Nodes (and links) added after compute_routes are not routed until
    // the next computation.
    std::vector<NodeId> all(static_cast<std::size_t>(topo.node_count()));
    for (NodeId v = 0; v < topo.node_count(); ++v) {
      all[static_cast<std::size_t>(v)] = v;
    }
    for (int k = static_cast<int>(rng.uniform_int(0, 3)); k > 0; --k) {
      g.add_duplex(pick(hubs), g.add_node(), delay());
      ++late_nodes;
    }
    expect_matches(topo, ref, "after late nodes");
    if (::testing::Test::HasFatalFailure()) return;

    // A single-link node gains a second link, and a one-way node may get
    // its return link; then recompute.
    std::vector<NodeId> single;
    for (NodeId v = 0; v < static_cast<NodeId>(defaulted_before.size());
         ++v) {
      if (g.adj[static_cast<std::size_t>(v)].size() == 1) single.push_back(v);
    }
    if (!single.empty()) {
      const NodeId leaf = pick(single);
      NodeId to = pick(all);
      if (to == leaf) to = hubs.front();
      g.add_link(leaf, to, delay());
      if (rng.bernoulli(0.5)) g.add_link(to, leaf, delay());
    }
    for (NodeId v = 0; v < static_cast<NodeId>(all.size()); ++v) {
      if (g.adj[static_cast<std::size_t>(v)].size() == 1 &&
          rng.bernoulli(0.5)) {
        g.add_link(g.adj[static_cast<std::size_t>(v)].front().first, v,
                   delay());
      }
    }
    topo.compute_routes();
    ref = all_pairs_routes(g.adj);
    std::vector<char> defaulted_after;
    census(g.adj, ref, defaulted_after);
    for (std::size_t v = 0; v < defaulted_before.size(); ++v) {
      if (defaulted_before[v] && !defaulted_after[v]) ++moved_to_table;
      if (!defaulted_before[v] && defaulted_after[v]) ++moved_to_default;
    }
    expect_matches(topo, ref, "second compute");
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The generator must exercise both single-link branches and both
  // directions of change across a recompute.
  EXPECT_GT(total.defaulted, 500);
  EXPECT_GT(total.fallback, 500);
  EXPECT_GT(moved_to_table, 100);
  EXPECT_GT(moved_to_default, 100);
  EXPECT_GT(late_nodes, 200);
}

}  // namespace
}  // namespace tfmcc
