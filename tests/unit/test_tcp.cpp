#include "tcp/tcp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "net/builders.hpp"
#include "sim/simulator.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

struct TcpFixture {
  TcpFixture(double bottleneck_bps, SimTime delay, std::size_t qlen = 50)
      : sim{11}, topo{sim} {
    LinkConfig bn;
    bn.rate_bps = bottleneck_bps;
    bn.delay = delay;
    bn.queue_limit_packets = qlen;
    LinkConfig acc;
    acc.rate_bps = 1e9;
    acc.delay = 1_ms;
    dumbbell = make_dumbbell(topo, 2, 2, bn, acc);
  }
  Simulator sim;
  Topology topo;
  Dumbbell dumbbell;
};

TEST(Tcp, TransfersDataAndMeasuresRtt) {
  TcpFixture f{10e6, 20_ms};
  TcpFlow flow{f.sim, f.topo, f.dumbbell.left_hosts[0],
               f.dumbbell.right_hosts[0], 0};
  flow.start(SimTime::zero());
  f.sim.run_until(5_sec);
  EXPECT_GT(flow.sink->delivered_packets(), 100);
  // Path RTT = 2*(1+20+1) ms = 44 ms plus queueing.
  EXPECT_GE(flow.sender->srtt(), 44_ms);
  EXPECT_LT(flow.sender->srtt(), 200_ms);
}

TEST(Tcp, SlowStartDoublesWindow) {
  TcpFixture f{100e6, 50_ms};
  TcpFlow flow{f.sim, f.topo, f.dumbbell.left_hosts[0],
               f.dumbbell.right_hosts[0], 0};
  flow.start(SimTime::zero());
  // After ~3 RTTs with no loss, cwnd should have grown far beyond initial.
  f.sim.run_until(400_ms);
  EXPECT_GT(flow.sender->cwnd(), 8.0);
  EXPECT_EQ(flow.sender->timeouts(), 0);
}

TEST(Tcp, UtilisesBottleneck) {
  TcpFixture f{2e6, 20_ms};
  TcpFlow flow{f.sim, f.topo, f.dumbbell.left_hosts[0],
               f.dumbbell.right_hosts[0], 0};
  flow.start(SimTime::zero());
  f.sim.run_until(30_sec);
  // Goodput over the last 20 s should be close to 2 Mbit/s = 2000 kbit/s.
  const double kbps = flow.mean_kbps(10_sec, 30_sec);
  EXPECT_GT(kbps, 1600.0);
  EXPECT_LE(kbps, 2050.0);
}

TEST(Tcp, RecoversFromLossViaFastRetransmit) {
  TcpFixture f{2e6, 20_ms, 10};  // small queue forces drops
  TcpFlow flow{f.sim, f.topo, f.dumbbell.left_hosts[0],
               f.dumbbell.right_hosts[0], 0};
  flow.start(SimTime::zero());
  f.sim.run_until(20_sec);
  EXPECT_GT(flow.sender->retransmits(), 0);
  // Fast retransmit should handle most losses without timeouts.
  EXPECT_LT(flow.sender->timeouts(), flow.sender->retransmits());
  // The flow keeps making progress.
  EXPECT_GT(flow.mean_kbps(10_sec, 20_sec), 1000.0);
}

TEST(Tcp, TwoFlowsShareFairly) {
  TcpFixture f{4e6, 20_ms};
  TcpFlow a{f.sim, f.topo, f.dumbbell.left_hosts[0],
            f.dumbbell.right_hosts[0], 0};
  TcpFlow b{f.sim, f.topo, f.dumbbell.left_hosts[1],
            f.dumbbell.right_hosts[1], 1};
  a.start(SimTime::zero());
  b.start(100_ms);
  f.sim.run_until(60_sec);
  const double rate_a = a.mean_kbps(20_sec, 60_sec);
  const double rate_b = b.mean_kbps(20_sec, 60_sec);
  // Long-term shares within a factor ~1.7 of each other.
  EXPECT_GT(rate_a / rate_b, 1.0 / 1.7);
  EXPECT_LT(rate_a / rate_b, 1.7);
  // Together they fill the pipe.
  EXPECT_GT(rate_a + rate_b, 3300.0);
}

TEST(Tcp, SurvivesAckLoss) {
  Simulator sim{12};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig fwd;
  fwd.rate_bps = 2e6;
  fwd.delay = 10_ms;
  LinkConfig rev = fwd;
  rev.loss_rate = 0.2;  // 20% ACK loss
  topo.add_link(a, b, fwd);
  topo.add_link(b, a, rev);
  topo.compute_routes();
  TcpFlow flow{sim, topo, a, b, 0};
  flow.start(SimTime::zero());
  sim.run_until(30_sec);
  // Cumulative ACKs make TCP robust to reverse loss (paper fig. 19).
  EXPECT_GT(flow.mean_kbps(10_sec, 30_sec), 1200.0);
}

TEST(Tcp, GoodputBinsEveryDeliveredSegment) {
  // Forward loss opens holes; the segments behind a hole wait in the sink's
  // out-of-order buffer and are delivered, and binned, when it is filled.
  Simulator sim{14};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig fwd;
  fwd.rate_bps = 2e6;
  fwd.delay = 10_ms;
  fwd.loss_rate = 0.02;
  LinkConfig rev = fwd;
  rev.loss_rate = 0.0;
  topo.add_link(a, b, fwd);
  topo.add_link(b, a, rev);
  topo.compute_routes();
  TcpFlow flow{sim, topo, a, b, 0};
  flow.start(SimTime::zero());
  sim.run_until(20_sec);
  // A fast retransmit (a retransmit that is not a timeout's) needs three
  // duplicate ACKs, so at least three segments were buffered behind a hole.
  EXPECT_GT(flow.sender->retransmits(), flow.sender->timeouts());
  std::int64_t binned = 0;
  for (const auto& p : flow.goodput.series_kbps().points()) {
    binned += std::llround(p.v * 1000.0 / 8.0);  // 1 s bins
  }
  EXPECT_EQ(binned, flow.sink->delivered_packets() * kDataPacketBytes);
  EXPECT_EQ(flow.goodput.total_bytes(), binned);
}

TEST(Tcp, StopHaltsTransmission) {
  TcpFixture f{10e6, 10_ms};
  TcpFlow flow{f.sim, f.topo, f.dumbbell.left_hosts[0],
               f.dumbbell.right_hosts[0], 0};
  flow.start(SimTime::zero());
  f.sim.run_until(2_sec);
  flow.stop();
  const auto sent_at_stop = flow.sender->packets_sent();
  f.sim.run_until(4_sec);
  EXPECT_LE(flow.sender->packets_sent(), sent_at_stop + 1);
}

TEST(Tcp, TimeoutOnTotalBlackout) {
  Simulator sim{13};
  Topology topo{sim};
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  LinkConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.delay = 10_ms;
  auto [ab, ba] = topo.add_duplex_link(a, b, cfg);
  topo.compute_routes();
  TcpFlow flow{sim, topo, a, b, 0};
  flow.start(SimTime::zero());
  sim.run_until(1_sec);
  ab->set_loss_rate(1.0);  // forward path dies
  sim.run_until(10_sec);
  EXPECT_GT(flow.sender->timeouts(), 0);
}

}  // namespace
}  // namespace tfmcc
