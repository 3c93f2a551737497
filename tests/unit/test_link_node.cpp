#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/builders.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

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

}  // namespace
}  // namespace tfmcc
