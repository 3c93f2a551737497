// Property test for multicast fan-out's shared completion events: a node's
// fan-out completes every link it takes from idle to busy with the same
// transmission time in one scheduler event.  The claim is that this is
// unobservable: on random stars and two-level trees (mixed branch rates,
// busy branches, Bernoulli loss, RED and drop-tail queues, jitter, set_delay
// and graft/prune while packets are in flight), every delivery happens at
// the same time, node, port and packet uid and in the same order, and every
// link's counters agree with a reference that forwards each copy with a
// plain per-link Link::send loop — what Node::forward_multicast did before
// the batching.
//
// The reference reuses the same topology, group and multicast tree but
// sends unicast copies addressed to the next hop, so each node hands them
// to a local forwarding agent instead of forwarding them itself.  Links see
// the same packet sizes in the same order either way, so queues, loss draws
// and jitter draws line up.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

constexpr PortId kPort = 9;
const SimTime kHorizon = SimTime::seconds(3.0);

struct Delivery {
  SimTime t;
  NodeId node;
  PortId port;
  std::uint64_t uid;
  bool operator==(const Delivery& o) const {
    return std::tie(t, node, port, uid) ==
           std::tie(o.t, o.node, o.port, o.uid);
  }
};

struct LinkCounters {
  std::int64_t delivered;
  std::int64_t queue_drops;
  std::int64_t loss_drops;
  bool operator==(const LinkCounters& o) const {
    return std::tie(delivered, queue_drops, loss_drops) ==
           std::tie(o.delivered, o.queue_drops, o.loss_drops);
  }
};

struct Outcome {
  std::vector<Delivery> deliveries;
  std::vector<LinkCounters> links;
  std::uint64_t events{0};
};

/// A random scenario, drawn once per seed and replayed by both runs.
struct Script {
  struct Branch {
    int parent;  // node index; 1 is the root router
    LinkConfig cfg;
  };
  struct Burst {
    SimTime at;
    std::vector<std::int32_t> sizes;
  };
  struct Membership {
    SimTime at;
    int node;
  };
  struct DelayChange {
    SimTime at;
    int branch;
    SimTime delay;
  };
  LinkConfig uplink;  // sender -> root
  std::vector<Branch> branches;  // node i + 2 hangs off branches[i].parent
  std::vector<int> initial_members;
  std::vector<Burst> bursts;
  std::vector<Membership> toggles;  // join if not a member, else leave
  std::vector<DelayChange> delays;
};

Script draw_script(std::uint64_t seed) {
  Rng rng{seed};
  Script s;
  s.uplink.rate_bps = 50e6;
  s.uplink.delay = SimTime::millis(1);
  s.uplink.queue_limit_packets = 64;
  // Few distinct rates, so some branches share a transmission time and
  // some do not.
  const double rates[] = {2e6, 2e6, 5e6, 10e6};
  auto branch_cfg = [&] {
    LinkConfig c;
    c.rate_bps = rates[rng.uniform_int(0, 3)];
    c.delay = SimTime::millis(rng.uniform_int(1, 6));
    c.queue_limit_packets = static_cast<std::size_t>(rng.uniform_int(2, 8));
    if (rng.bernoulli(0.25)) c.loss_rate = 0.1;
    if (rng.bernoulli(0.15)) c.use_red = true;
    if (rng.bernoulli(0.3)) c.jitter = SimTime::micros(500);
    return c;
  };
  const bool tree = rng.bernoulli(0.5);
  if (tree) {
    const int mids = static_cast<int>(rng.uniform_int(2, 4));
    for (int m = 0; m < mids; ++m) s.branches.push_back({1, branch_cfg()});
    for (int m = 0; m < mids; ++m) {
      const int leaves = static_cast<int>(rng.uniform_int(1, 6));
      for (int k = 0; k < leaves; ++k) {
        s.branches.push_back({m + 2, branch_cfg()});
      }
    }
  } else {
    const int leaves = static_cast<int>(rng.uniform_int(2, 24));
    for (int k = 0; k < leaves; ++k) s.branches.push_back({1, branch_cfg()});
  }
  const int n_nodes = static_cast<int>(s.branches.size()) + 2;
  for (int n = 2; n < n_nodes; ++n) {
    if (rng.bernoulli(0.7)) s.initial_members.push_back(n);
  }
  auto random_time = [&] {
    return SimTime::nanos(rng.uniform_int(0, kHorizon.count_nanos() - 1));
  };
  for (int b = 0; b < 450; ++b) {
    Script::Burst burst{random_time(), {}};
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < n; ++i) {
      burst.sizes.push_back(rng.bernoulli(0.7) ? 1000 : 200);
    }
    s.bursts.push_back(std::move(burst));
  }
  for (int i = 0; i < 40; ++i) {
    s.toggles.push_back(
        {random_time(), static_cast<int>(rng.uniform_int(1, n_nodes - 1))});
  }
  for (int i = 0; i < 40; ++i) {
    s.delays.push_back(
        {random_time(),
         static_cast<int>(
             rng.uniform_int(0, static_cast<std::int64_t>(s.branches.size()) - 1)),
         SimTime::millis(rng.uniform_int(1, 8))});
  }
  return s;
}

/// Records local deliveries (the batched run).
class Recorder final : public Agent {
 public:
  Recorder(Simulator& sim, NodeId node, std::vector<Delivery>& out)
      : sim_{sim}, node_{node}, out_{out} {}
  void handle_packet(const Packet& p) override {
    out_.push_back({sim_.now(), node_, p.dport, p.uid});
  }

 private:
  Simulator& sim_;
  NodeId node_;
  std::vector<Delivery>& out_;
};

/// The reference fan-out: one plain Link::send per tree child, in tree
/// order, each with its own copy addressed to the next hop.
void reference_forward(Topology& topo, GroupId g, NodeId at,
                       const Packet& p) {
  for (Link* l : topo.mcast_out_links(g, at)) {
    auto copy = make_heap_packet();
    copy->uid = p.uid;
    copy->src = p.src;
    copy->dst = l->destination().id();
    copy->dport = p.dport;
    copy->size_bytes = p.size_bytes;
    copy->created = p.created;
    l->send(copy);
  }
}

/// Receives the reference's copies at every node: records the delivery if
/// the node is a member, then forwards — the order Node::receive uses.
class ReferenceForwarder final : public Agent {
 public:
  ReferenceForwarder(Topology& topo, GroupId g, NodeId node,
                     std::vector<Delivery>& out)
      : topo_{topo}, g_{g}, node_{node}, out_{out} {}
  void handle_packet(const Packet& p) override {
    if (topo_.is_member(g_, node_)) {
      out_.push_back({topo_.sim().now(), node_, p.dport, p.uid});
    }
    reference_forward(topo_, g_, node_, p);
  }

 private:
  Topology& topo_;
  GroupId g_;
  NodeId node_;
  std::vector<Delivery>& out_;
};

Outcome run(const Script& s, std::uint64_t seed, bool reference) {
  Outcome out;
  Simulator sim{seed};
  Topology topo{sim};
  const NodeId sender = topo.add_node();
  const NodeId root = topo.add_node();
  std::vector<Link*> links;
  links.push_back(topo.add_duplex_link(sender, root, s.uplink).first);
  std::vector<Link*> branch_links;
  for (const auto& b : s.branches) {
    const NodeId child = topo.add_node();
    branch_links.push_back(
        topo.add_duplex_link(static_cast<NodeId>(b.parent), child, b.cfg)
            .first);
  }
  links.insert(links.end(), branch_links.begin(), branch_links.end());
  topo.compute_routes();
  const GroupId g = topo.create_group(sender);

  std::vector<std::unique_ptr<Agent>> agents;
  for (NodeId n = root; n < topo.node_count(); ++n) {
    if (reference) {
      agents.push_back(
          std::make_unique<ReferenceForwarder>(topo, g, n, out.deliveries));
    } else {
      agents.push_back(std::make_unique<Recorder>(sim, n, out.deliveries));
    }
    topo.node(n).attach_agent(kPort, agents.back().get());
  }
  for (int n : s.initial_members) topo.join(g, static_cast<NodeId>(n));

  for (const auto& burst : s.bursts) {
    sim.at(burst.at, [&sim, &topo, &burst, sender, g, reference] {
      for (std::int32_t size : burst.sizes) {
        auto p = sim.make_packet();
        p->src = sender;
        p->group = g;
        p->dport = kPort;
        p->size_bytes = size;
        if (reference) {
          reference_forward(topo, g, sender, *p);
        } else {
          topo.node(sender).send(p);
        }
      }
    });
  }
  for (const auto& t : s.toggles) {
    sim.at(t.at, [&topo, g, node = static_cast<NodeId>(t.node)] {
      if (topo.is_member(g, node)) {
        topo.leave(g, node);
      } else {
        topo.join(g, node);
      }
    });
  }
  for (const auto& d : s.delays) {
    Link* l = branch_links[static_cast<std::size_t>(d.branch)];
    sim.at(d.at, [l, delay = d.delay] { l->set_delay(delay); });
  }
  sim.run();

  for (const Link* l : links) {
    out.links.push_back(
        {l->delivered_packets(), l->queue_drops(), l->loss_model_drops()});
  }
  out.events = sim.scheduler().executed();
  return out;
}

TEST(FanoutOrder, SharedCompletionsMatchPerLinkReference) {
  std::uint64_t batched_events = 0;
  std::uint64_t reference_events = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const Script s = draw_script(seed);
    const Outcome batched = run(s, seed, false);
    const Outcome ref = run(s, seed, true);
    ASSERT_EQ(batched.deliveries.size(), ref.deliveries.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < ref.deliveries.size(); ++i) {
      const Delivery& a = batched.deliveries[i];
      const Delivery& b = ref.deliveries[i];
      ASSERT_TRUE(a == b) << "seed " << seed << ": delivery " << i
                          << " differs: batched (" << a.t.str() << ", node "
                          << a.node << ", uid " << a.uid << ") vs reference ("
                          << b.t.str() << ", node " << b.node << ", uid "
                          << b.uid << ")";
    }
    ASSERT_EQ(batched.links.size(), ref.links.size());
    for (std::size_t i = 0; i < ref.links.size(); ++i) {
      EXPECT_TRUE(batched.links[i] == ref.links[i])
          << "seed " << seed << ": counters of link " << i << " differ";
    }
    EXPECT_LE(batched.events, ref.events) << "seed " << seed;
    batched_events += batched.events;
    reference_events += ref.events;
  }
  // The scripts must actually exercise shared completions.
  EXPECT_LT(batched_events, reference_events);
}

}  // namespace
}  // namespace tfmcc
