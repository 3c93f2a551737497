#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/builders.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

/// Test agent that records deliveries.
class RecordingAgent final : public Agent {
 public:
  explicit RecordingAgent(Simulator& sim) : sim_{sim} {}
  void handle_packet(const Packet& p) override {
    uids.push_back(p.uid);
    times.push_back(sim_.now());
  }
  std::vector<std::uint64_t> uids;
  std::vector<SimTime> times;

 private:
  Simulator& sim_;
};

PacketPtr make_unicast(Simulator& sim, NodeId src, NodeId dst, PortId dport,
                       std::int32_t bytes) {
  auto p = make_heap_packet();
  p->uid = sim.next_uid();
  p->src = src;
  p->dst = dst;
  p->dport = dport;
  p->size_bytes = bytes;
  p->created = sim.now();
  return p;
}

struct TwoNodeFixture {
  TwoNodeFixture(double rate_bps, SimTime delay, double loss = 0.0)
      : sim{1}, topo{sim}, agent{sim} {
    a = topo.add_node();
    b = topo.add_node();
    LinkConfig cfg;
    cfg.rate_bps = rate_bps;
    cfg.delay = delay;
    cfg.loss_rate = loss;
    topo.add_duplex_link(a, b, cfg);
    topo.compute_routes();
    topo.node(b).attach_agent(5, &agent);
  }
  Simulator sim;
  Topology topo;
  RecordingAgent agent;
  NodeId a{}, b{};
};

TEST(Link, DeliversAfterTransmissionPlusPropagation) {
  TwoNodeFixture f{8e6, 10_ms};  // 8 Mbit/s, 10 ms
  // 1000 bytes at 8 Mbit/s = 1 ms serialisation; total 11 ms.
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 1000));
  f.sim.run();
  ASSERT_EQ(f.agent.uids.size(), 1u);
  EXPECT_EQ(f.agent.times[0], 11_ms);
}

TEST(Link, SerialisesBackToBackPackets) {
  TwoNodeFixture f{8e6, 10_ms};
  for (int i = 0; i < 3; ++i) {
    f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 1000));
  }
  f.sim.run();
  ASSERT_EQ(f.agent.times.size(), 3u);
  EXPECT_EQ(f.agent.times[0], 11_ms);  // 1 ms tx + 10 ms prop
  EXPECT_EQ(f.agent.times[1], 12_ms);  // queued behind first
  EXPECT_EQ(f.agent.times[2], 13_ms);
}

TEST(Link, QueueOverflowDrops) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.delay = 1_ms;
  cfg.queue_limit_packets = 2;
  auto [ab, ba] = topo.add_duplex_link(a, b, cfg);
  topo.compute_routes();
  RecordingAgent agent{sim};
  topo.node(b).attach_agent(5, &agent);
  // Burst of 10: 1 in transmission + 2 queued survive.
  for (int i = 0; i < 10; ++i) {
    topo.node(a).send(make_unicast(sim, a, b, 5, 1000));
  }
  sim.run();
  EXPECT_EQ(agent.uids.size(), 3u);
  EXPECT_EQ(ab->queue_drops(), 7);
}

TEST(Link, BernoulliLossDropsApproximatelyPFraction) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = 1_ms;
  cfg.loss_rate = 0.25;
  cfg.queue_limit_packets = 100000;  // isolate the loss model from the queue
  topo.add_duplex_link(a, b, cfg);
  topo.compute_routes();
  RecordingAgent agent{sim};
  topo.node(b).attach_agent(5, &agent);
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    topo.node(a).send(make_unicast(sim, a, b, 5, 100));
  }
  sim.run();
  const double received = static_cast<double>(agent.uids.size());
  EXPECT_NEAR(received / n, 0.75, 0.03);
}

TEST(Link, SetLossRateTakesEffect) {
  TwoNodeFixture f{1e9, 1_ms, 0.0};
  Link* l = f.topo.link_between(f.a, f.b);
  ASSERT_NE(l, nullptr);
  l->set_loss_rate(1.0);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  EXPECT_TRUE(f.agent.uids.empty());
  EXPECT_EQ(l->loss_model_drops(), 1);
}

TEST(Link, SetDelayAffectsSubsequentPackets) {
  TwoNodeFixture f{1e9, 1_ms};
  Link* l = f.topo.link_between(f.a, f.b);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  l->set_delay(50_ms);
  const SimTime before = f.sim.now();
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  ASSERT_EQ(f.agent.times.size(), 2u);
  EXPECT_GE(f.agent.times[1] - before, 50_ms);
}

TEST(Link, JitterDrawsTheStreamsUniformSequence) {
  // The jitter stream must read exactly as Rng::uniform(0, 1) reads the
  // same seed, on both sides of the prefix's 32-word boundary.  Packets
  // go 10 ms apart, so the FIFO guard never moves an arrival.
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  RecordingAgent agent{sim};
  topo.node(b).attach_agent(5, &agent);
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = 5_ms;
  cfg.jitter = 1_ms;
  constexpr std::uint64_t kSeed = 0x5eed;
  Link link{sim, topo.node(b), cfg, Rng{kSeed}};
  constexpr int kPackets = 40;
  static_assert(kPackets > static_cast<int>(Rng::kPrefixWords));
  for (int i = 0; i < kPackets; ++i) {
    sim.at(SimTime::millis(10 * i),
           [&] { link.send(make_unicast(sim, a, b, 5, 1000)); });
  }
  sim.run();
  ASSERT_EQ(agent.times.size(), static_cast<std::size_t>(kPackets));
  Rng reference{kSeed};
  for (int i = 0; i < kPackets; ++i) {
    const SimTime sent =
        SimTime::millis(10 * i) + link.transmission_time(1000);
    EXPECT_EQ(agent.times[i] - sent,
              cfg.delay + cfg.jitter * reference.uniform(0.0, 1.0))
        << "delay " << i;
  }
}

TEST(Node, DeliversOnlyToMatchingPort) {
  TwoNodeFixture f{1e9, 1_ms};
  RecordingAgent other{f.sim};
  f.topo.node(f.b).attach_agent(6, &other);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  EXPECT_EQ(f.agent.uids.size(), 1u);
  EXPECT_TRUE(other.uids.empty());
}

TEST(Node, LocalDeliveryWithoutNetwork) {
  TwoNodeFixture f{1e9, 1_ms};
  RecordingAgent local{f.sim};
  f.topo.node(f.a).attach_agent(9, &local);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.a, 9, 100));
  f.sim.run();
  EXPECT_EQ(local.uids.size(), 1u);
}

TEST(Node, DetachStopsDelivery) {
  TwoNodeFixture f{1e9, 1_ms};
  f.topo.node(f.b).detach_agent(5);
  f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, 5, 100));
  f.sim.run();
  EXPECT_TRUE(f.agent.uids.empty());
}

TEST(Node, ForwardsThroughIntermediateNode) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId mid = topo.add_node();
  const NodeId c = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = 2_ms;
  topo.add_duplex_link(a, mid, cfg);
  topo.add_duplex_link(mid, c, cfg);
  topo.compute_routes();
  RecordingAgent agent{sim};
  topo.node(c).attach_agent(5, &agent);
  topo.node(a).send(make_unicast(sim, a, c, 5, 100));
  sim.run();
  ASSERT_EQ(agent.uids.size(), 1u);
  EXPECT_GT(topo.node(mid).forwarded(), 0);
  EXPECT_GE(agent.times[0], 4_ms);  // two propagation hops
}

TEST(Node, NoRouteWarningCarriesTheCurrentTime) {
  Simulator sim{1};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();  // no link: unreachable from a
  topo.compute_routes();
  sim.at(SimTime::millis(2500), [&] {
    topo.node(a).send(make_unicast(sim, a, b, 5, 100));
  });
  testing::internal::CaptureStderr();
  sim.run();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("no route"), std::string::npos) << err;
  EXPECT_NE(err.find("[  2.500000]"), std::string::npos) << err;
  EXPECT_EQ(err.find("[  0.000000]"), std::string::npos) << err;
}

TEST(Node, MulticastFanoutCompletesInOneEvent) {
  // One multicast packet through a 64-leaf star with equal leaf rates: the
  // sender hop costs its transmit-complete and arrival events, then the
  // hub's fan-out costs one shared completion event plus one arrival per
  // leaf.
  constexpr int kLeaves = 64;
  Simulator sim{1};
  Topology topo{sim};
  LinkConfig cfg;
  cfg.rate_bps = 10e6;
  cfg.delay = 2_ms;
  const Star star =
      make_star(topo, cfg, std::vector<LinkConfig>(kLeaves, cfg));
  const GroupId g = topo.create_group(star.sender);
  std::vector<std::unique_ptr<RecordingAgent>> agents;
  for (NodeId leaf : star.leaves) {
    agents.push_back(std::make_unique<RecordingAgent>(sim));
    topo.node(leaf).attach_agent(5, agents.back().get());
    topo.join(g, leaf);
  }
  auto p = make_heap_packet();
  p->uid = sim.next_uid();
  p->src = star.sender;
  p->group = g;
  p->dport = 5;
  p->size_bytes = 1000;
  topo.node(star.sender).send(p);
  sim.run();
  for (const auto& agent : agents) EXPECT_EQ(agent->uids.size(), 1u);
  EXPECT_EQ(sim.scheduler().executed(), 2u + 1u + kLeaves);
}

// --- the inline agent slot ---------------------------------------------------

TEST(Node, InlineAgentSlotMatchesAPortTableUnderRandomAttachDetach) {
  // Random attach, same-port replace and detach over a few ports, checked
  // after every step against a plain port -> agent table by a local
  // delivery to every port.  Detaching the slot's agent while others
  // remain is the common case: with three or more ports in use it happens
  // on most detaches.
  Simulator sim{1};
  Topology topo{sim};
  const NodeId n = topo.add_node();
  Node& node = topo.node(n);
  constexpr int kPorts = 5;
  std::vector<std::unique_ptr<RecordingAgent>> agents;
  for (int i = 0; i < 8; ++i) {
    agents.push_back(std::make_unique<RecordingAgent>(sim));
  }
  std::map<PortId, RecordingAgent*> ref;
  Rng rng{3};
  for (int step = 0; step < 2000; ++step) {
    const auto port = static_cast<PortId>(rng.uniform_int(1, kPorts));
    if (rng.uniform_int(0, 2) == 0) {
      node.detach_agent(port);
      ref.erase(port);
    } else {
      RecordingAgent* a = agents[static_cast<std::size_t>(
                                     rng.uniform_int(0, 7))].get();
      node.attach_agent(port, a);
      ref[port] = a;
    }
    for (auto& a : agents) a->uids.clear();
    for (PortId p = 1; p <= kPorts; ++p) {
      auto pkt = make_unicast(sim, n, n, p, 100);
      node.send(pkt);
      const auto it = ref.find(p);
      int hits = 0;
      for (auto& a : agents) {
        for (std::uint64_t uid : a->uids) {
          if (uid != pkt->uid) continue;
          ++hits;
          ASSERT_TRUE(it != ref.end() && it->second == a.get())
              << "step " << step << " port " << p;
        }
      }
      ASSERT_EQ(hits, it == ref.end() ? 0 : 1) << "step " << step;
    }
  }
  EXPECT_EQ(node.delivered_local(), node.delivered_endpoints());
}

TEST(Node, ReattachingAPortToAProxyAndDetachingItKeepsTheOtherPorts) {
  // The timing proxies' pattern: a receiver attaches itself, a proxy is
  // attached over it on the same port, and a leave detaches the port
  // while another agent (here a sender's control port) stays attached.
  TwoNodeFixture f{1e9, 1_ms};
  RecordingAgent control{f.sim};
  RecordingAgent proxy{f.sim};
  Node& b = f.topo.node(f.b);
  b.attach_agent(1, &control);  // f.agent is already on port 5
  b.attach_agent(5, &proxy);
  for (PortId p : {5, 1}) {
    f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, p, 100));
  }
  f.sim.run();
  EXPECT_TRUE(f.agent.uids.empty());
  EXPECT_EQ(proxy.uids.size(), 1u);
  EXPECT_EQ(control.uids.size(), 1u);
  b.detach_agent(5);
  b.attach_agent(5, &f.agent);  // a rejoin, then its proxy again
  b.attach_agent(5, &proxy);
  b.detach_agent(1);
  for (PortId p : {5, 1}) {
    f.topo.node(f.a).send(make_unicast(f.sim, f.a, f.b, p, 100));
  }
  f.sim.run();
  EXPECT_TRUE(f.agent.uids.empty());
  EXPECT_EQ(proxy.uids.size(), 2u);
  EXPECT_EQ(control.uids.size(), 1u);
  EXPECT_EQ(b.delivered_local(), 3);
}

// --- the idle-link pass-through ----------------------------------------------

/// A link as it ran before idle drop-tail links passed packets straight to
/// the transmitter: every packet is enqueued, and an idle link dequeues it
/// again.  No loss model or jitter, whose paths did not change.
class RingPathLink {
 public:
  RingPathLink(Simulator& sim, std::unique_ptr<Queue> q, double rate_bps,
               SimTime delay)
      : sim_{sim}, q_{std::move(q)}, rate_bps_{rate_bps}, delay_{delay} {}

  void send(const PacketPtr& p) {
    if (!q_->enqueue(p)) return;
    if (!transmitting_) start();
  }
  const Queue& queue() const { return *q_; }
  std::int64_t delivered() const { return delivered_; }
  std::vector<std::uint64_t> uids;
  std::vector<SimTime> times;

 private:
  void start() {
    PacketPtr p = q_->dequeue();
    if (!p) return;
    transmitting_ = true;
    const SimTime tx = SimTime::seconds(
        static_cast<double>(p->size_bytes) * 8.0 / rate_bps_);
    sim_.in(tx, [this, p = std::move(p)] {
      ++delivered_;
      sim_.in(delay_, [this, uid = p->uid] {
        uids.push_back(uid);
        times.push_back(sim_.now());
      });
      transmitting_ = false;
      if (!q_->empty()) start();
    });
  }

  Simulator& sim_;
  std::unique_ptr<Queue> q_;
  double rate_bps_;
  SimTime delay_;
  bool transmitting_{false};
  std::int64_t delivered_{0};
};

TEST(Link, IdlePassThroughMatchesEnqueueAndDequeue) {
  // Random bursts and gaps into one link and into the ring-path model, for
  // drop-tail limits 0, 1, 3 and 50 and for RED (which keeps the ring
  // path): the queue's accepted, dropped and queued-byte counts, probed
  // while packets are in flight, and the delivery order and times agree.
  struct Case {
    std::size_t limit;
    bool red;
  };
  for (const Case c : {Case{0, false}, Case{1, false}, Case{3, false},
                       Case{50, false}, Case{20, true}}) {
    SCOPED_TRACE("limit " + std::to_string(c.limit) +
                 (c.red ? " RED" : " drop-tail"));
    LinkConfig cfg;
    cfg.rate_bps = 8e6;
    cfg.delay = 3_ms;
    cfg.queue_limit_packets = c.limit;
    cfg.use_red = c.red;
    Simulator sim{1};
    Topology topo{sim};
    const NodeId a = topo.add_node();
    const NodeId b = topo.add_node();
    RecordingAgent sink{sim};
    topo.node(b).attach_agent(5, &sink);
    const Rng link_rng{77};
    Link link{sim, topo.node(b), cfg, link_rng};

    Simulator ref_sim{1};
    std::unique_ptr<Queue> ref_queue;
    if (c.red) {
      RedQueue::Config red;
      red.limit_packets = cfg.queue_limit_packets;
      red.max_th = static_cast<double>(cfg.queue_limit_packets) * 0.5;
      red.min_th = red.max_th / 3.0;
      ref_queue = std::make_unique<RedQueue>(red, link_rng.substream(1),
                                             ref_sim.arena());
    } else {
      ref_queue = std::make_unique<DropTailQueue>(cfg.queue_limit_packets,
                                                  ref_sim.arena());
    }
    RingPathLink ref{ref_sim, std::move(ref_queue), cfg.rate_bps, cfg.delay};

    Rng script{static_cast<std::uint64_t>(c.limit) + (c.red ? 100 : 0)};
    SimTime t = SimTime::zero();
    int probes = 0;
    for (int burst = 0; burst < 300; ++burst) {
      const auto n = script.uniform_int(1, c.red ? 30 : 6);
      for (std::int64_t i = 0; i < n; ++i) {
        auto p = make_unicast(sim, a, b, 5,
                              static_cast<std::int32_t>(
                                  script.uniform_int(40, 1500)));
        sim.at(t, [&link, p] { link.send(p); });
        ref_sim.at(t, [&ref, p] { ref.send(p); });
      }
      t += SimTime::micros(script.uniform_int(0, 3000));  // the probe
      sim.run_until(t);
      ref_sim.run_until(t);
      ASSERT_EQ(link.queue().accepted(), ref.queue().accepted());
      ASSERT_EQ(link.queue().drops(), ref.queue().drops());
      ASSERT_EQ(link.queue().size_bytes(), ref.queue().size_bytes());
      ASSERT_EQ(link.queue().size_packets(), ref.queue().size_packets());
      ASSERT_EQ(link.delivered_packets(), ref.delivered());
      ++probes;
    }
    sim.run();
    ref_sim.run();
    EXPECT_EQ(link.queue().accepted(), ref.queue().accepted());
    EXPECT_EQ(link.queue().drops(), ref.queue().drops());
    EXPECT_EQ(link.delivered_packets(), ref.delivered());
    EXPECT_EQ(sink.uids, ref.uids);
    EXPECT_EQ(sink.times, ref.times);
    if (c.limit == 0) {
      EXPECT_TRUE(sink.uids.empty());
    } else {
      EXPECT_GT(link.queue().drops(), 0);
      EXPECT_GT(link.queue().accepted(), 100);
    }
    EXPECT_EQ(probes, 300);
  }
}

}  // namespace
}  // namespace tfmcc
