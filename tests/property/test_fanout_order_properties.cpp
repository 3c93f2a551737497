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
// and jitter draws line up.  The reference's copies each arrive in their
// own event, where a batched fan-out delivers its copies from one sorted
// arrival run, taking each next copy in the same frame while the scheduler
// grants it; three hand-built scripts aim at that sort: arrivals that all
// tie, arrivals spread over several radix digits, and unrelated events at
// exactly a run arrival's time.
//
// Both runs advance in run_until slices of 0.5 ms, short enough to cut
// arrival runs apart, and each slice must stop its clock at its bound.  Some
// deliveries schedule a follow-up event a little later, which may fall
// between the copy's time and the next copy's; it must run in between.

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
const SimTime kSlice = SimTime::micros(500);

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
  // run_until slices that left the clock anywhere but at their bound.
  int overrun_slices{0};
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
  // Unrelated events, recorded as deliveries at node kMarkerNode: one
  // scheduled before the run starts, one scheduled at the same time by an
  // event that fires there, so after every copy scheduled earlier.
  std::vector<SimTime> markers;
};

constexpr NodeId kMarkerNode = -1;
constexpr PortId kFollowUpPort = 2;

/// Schedules, for one delivery in three, a follow-up event 0, 1 or 100 us
/// later that records itself as a marker delivery.  The choice depends only
/// on the delivery, so both runs schedule the same follow-ups.
void follow_up(Simulator& sim, NodeId node, std::uint64_t uid,
               std::vector<Delivery>& out) {
  const std::uint64_t h = uid * 7 + static_cast<std::uint64_t>(node);
  if (h % 3 != 0) return;
  const SimTime delays[] = {SimTime::zero(), SimTime::micros(1),
                            SimTime::micros(100)};
  sim.in(delays[(h / 3) % 3], [&sim, &out, uid] {
    out.push_back({sim.now(), kMarkerNode, kFollowUpPort, uid});
  });
}

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
    follow_up(sim_, node_, p.uid, out_);
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
      follow_up(topo_.sim(), node_, p.uid, out_);
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
  for (SimTime m : s.markers) {
    auto mark = [&sim, &out](PortId which) {
      out.deliveries.push_back({sim.now(), kMarkerNode, which, 0});
    };
    sim.at(m, [mark] { mark(0); });
    sim.at(m, [&sim, mark] { sim.at(sim.now(), [mark] { mark(1); }); });
  }
  for (SimTime bound = kSlice; !sim.scheduler().empty(); bound += kSlice) {
    sim.run_until(bound);
    if (sim.now() != bound) ++out.overrun_slices;
  }

  for (const Link* l : links) {
    out.links.push_back(
        {l->delivered_packets(), l->queue_drops(), l->loss_model_drops()});
  }
  out.events = sim.scheduler().executed();
  return out;
}

/// Runs `s` batched and through the reference; every delivery, marker and
/// link counter must agree.  Adds the two runs' executed event counts to
/// `batched_events` and `reference_events`.
void expect_matches_reference(const Script& s, std::uint64_t seed,
                              std::uint64_t& batched_events,
                              std::uint64_t& reference_events) {
  const Outcome batched = run(s, seed, false);
  const Outcome ref = run(s, seed, true);
  ASSERT_EQ(batched.deliveries.size(), ref.deliveries.size())
      << "seed " << seed;
  for (std::size_t i = 0; i < ref.deliveries.size(); ++i) {
    const Delivery& a = batched.deliveries[i];
    const Delivery& b = ref.deliveries[i];
    ASSERT_TRUE(a == b) << "seed " << seed << ": delivery " << i
                        << " differs: batched (" << a.t.str() << ", node "
                        << a.node << ", port " << a.port << ", uid " << a.uid
                        << ") vs reference (" << b.t.str() << ", node "
                        << b.node << ", port " << b.port << ", uid " << b.uid
                        << ")";
  }
  ASSERT_EQ(batched.links.size(), ref.links.size());
  for (std::size_t i = 0; i < ref.links.size(); ++i) {
    EXPECT_TRUE(batched.links[i] == ref.links[i])
        << "seed " << seed << ": counters of link " << i << " differ";
  }
  EXPECT_EQ(batched.overrun_slices, 0) << "seed " << seed;
  EXPECT_EQ(ref.overrun_slices, 0) << "seed " << seed;
  EXPECT_LE(batched.events, ref.events) << "seed " << seed;
  batched_events += batched.events;
  reference_events += ref.events;
}

TEST(FanoutOrder, SharedCompletionsMatchPerLinkReference) {
  std::uint64_t batched_events = 0;
  std::uint64_t reference_events = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    expect_matches_reference(draw_script(seed), seed, batched_events,
                             reference_events);
    if (HasFatalFailure()) return;
  }
  // The scripts must actually exercise shared completions.
  EXPECT_LT(batched_events, reference_events);
}

/// A star of `leaves` equal branches, all initially members, and `bursts`
/// of two 1000-byte packets 20 ms apart from t = 10 ms: each burst's first
/// packet fans out to every idle branch in one batch.
Script star_script(int leaves, LinkConfig branch, int bursts) {
  Script s;
  s.uplink.rate_bps = 50e6;
  s.uplink.delay = SimTime::millis(1);
  s.uplink.queue_limit_packets = 64;
  for (int k = 0; k < leaves; ++k) {
    s.branches.push_back({1, branch});
    s.initial_members.push_back(k + 2);
  }
  for (int b = 0; b < bursts; ++b) {
    s.bursts.push_back({SimTime::millis(10 + 20 * b), {1000, 1000}});
  }
  return s;
}

TEST(FanoutOrder, TiedArrivalsKeepTheirSequenceOrder) {
  // Zero jitter and equal delays: every arrival of a run ties on t, so only
  // the reserved sequence numbers order them.  48 copies take the radix
  // path, and an unstable sort would reorder them.
  LinkConfig branch;
  branch.rate_bps = 10e6;
  branch.delay = SimTime::millis(3);
  branch.queue_limit_packets = 8;
  std::uint64_t batched = 0;
  std::uint64_t ref = 0;
  expect_matches_reference(star_script(48, branch, 20), 1, batched, ref);
  EXPECT_LT(batched, ref);
}

TEST(FanoutOrder, ArrivalsSpreadOverSeveralRadixDigits) {
  // set_delay moves every other branch from 1 ms to 30..70 ms before the
  // bursts, spreading each run's arrivals over more than 2^22 ns: the radix
  // sort takes several passes, on top of the jitter's low digits.
  LinkConfig branch;
  branch.rate_bps = 10e6;
  branch.delay = SimTime::millis(1);
  branch.queue_limit_packets = 8;
  branch.jitter = SimTime::micros(700);
  Script s = star_script(40, branch, 20);
  for (int k = 0; k < 40; k += 2) {
    s.delays.push_back({SimTime::millis(5), k, SimTime::millis(30 + k)});
  }
  const SimTime spread = SimTime::millis(30 + 38) - SimTime::millis(1);
  ASSERT_GT(spread.count_nanos(), std::int64_t{1} << 22);
  std::uint64_t batched = 0;
  std::uint64_t ref = 0;
  expect_matches_reference(s, 2, batched, ref);
  EXPECT_LT(batched, ref);
}

/// The times of a run's copy deliveries, follow-up markers left out.
std::vector<SimTime> copy_times(const Outcome& o) {
  std::vector<SimTime> times;
  for (const Delivery& d : o.deliveries) {
    if (d.node != kMarkerNode) times.push_back(d.t);
  }
  return times;
}

TEST(FanoutOrder, UnrelatedEventsAtARunArrivalTimeKeepTheirPlace) {
  // An unrelated event at exactly a run arrival's time runs before the
  // run's copies when it was scheduled before the fan-out, and after them
  // when scheduled after it.  The arrival times come from a dry run of the
  // reference: the tied copies of the zero-jitter star, then single copies
  // of jittered random scripts.
  LinkConfig branch;
  branch.rate_bps = 10e6;
  branch.delay = SimTime::millis(3);
  branch.queue_limit_packets = 8;
  Script tied = star_script(40, branch, 6);
  const std::vector<SimTime> dry = copy_times(run(tied, 3, true));
  ASSERT_FALSE(dry.empty());
  for (std::size_t i = 0; i < dry.size(); i += 40) {
    tied.markers.push_back(dry[i]);
  }
  std::uint64_t batched = 0;
  std::uint64_t ref = 0;
  expect_matches_reference(tied, 3, batched, ref);
  if (HasFatalFailure()) return;
  EXPECT_LT(batched, ref);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Script s = draw_script(seed);
    const std::vector<SimTime> d = copy_times(run(s, seed, true));
    for (std::size_t i = 7; i < d.size(); i += 97) {
      s.markers.push_back(d[i]);
    }
    expect_matches_reference(s, seed, batched, ref);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace tfmcc
