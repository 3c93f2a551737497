#include <gtest/gtest.h>

#include "analysis/summary.hpp"
#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/flow.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

/// One TFMCC sender, one receiver, a 1 Mbit/s bottleneck.  The most basic
/// closed-loop scenario: the protocol must find and hold the bottleneck
/// rate using only self-induced queue losses.
struct BasicFixture {
  BasicFixture(double bottleneck_bps = 1e6, std::uint64_t seed = 21)
      : sim{seed}, topo{sim} {
    LinkConfig bn;
    bn.rate_bps = bottleneck_bps;
    bn.delay = 20_ms;
    // Queue sized near the bandwidth-delay product; ns-2's default of 50
    // packets would add up to 400 ms of queueing delay at 1 Mbit/s and
    // swamp the propagation RTT.
    bn.queue_limit_packets = 12;
    LinkConfig acc;
    acc.rate_bps = 100e6;
    acc.delay = 2_ms;
    dumbbell = make_dumbbell(topo, 1, 1, bn, acc);
    flow = std::make_unique<TfmccFlow>(sim, topo, dumbbell.left_hosts[0]);
    flow->add_joined_receiver(dumbbell.right_hosts[0]);
  }
  Simulator sim;
  Topology topo;
  Dumbbell dumbbell;
  std::unique_ptr<TfmccFlow> flow;
};

TEST(TfmccBasic, DeliversDataToReceiver) {
  BasicFixture f;
  f.flow->sender().start(SimTime::zero());
  f.sim.run_until(30_sec);
  EXPECT_GT(f.flow->receiver(0).packets_received(), 100);
  EXPECT_GT(f.flow->sender().data_sent(), 100);
}

TEST(TfmccBasic, ConvergesNearBottleneckRate) {
  BasicFixture f;
  f.flow->sender().start(SimTime::zero());
  f.sim.run_until(120_sec);
  const double kbps = f.flow->goodput(0).mean_kbps(60_sec, 120_sec);
  // Alone on a 1 Mbit/s link the flow should use most of it without
  // grossly exceeding it.
  EXPECT_GT(kbps, 500.0);
  EXPECT_LE(kbps, 1050.0);
}

TEST(TfmccBasic, SlowstartTerminatesOnFirstLoss) {
  BasicFixture f;
  f.flow->sender().start(SimTime::zero());
  f.sim.run_until(60_sec);
  EXPECT_FALSE(f.flow->sender().in_slowstart());
  EXPECT_TRUE(f.flow->receiver(0).has_loss());
  EXPECT_FALSE(f.flow->sender().slowstart_exit_time().is_infinite());
}

TEST(TfmccBasic, SlowstartOvershootBounded) {
  BasicFixture f;
  f.flow->sender().start(SimTime::zero());
  f.sim.run_until(60_sec);
  // §2.6: the overshoot is limited to ~2x the bottleneck bandwidth.
  const double peak_kbps = f.flow->sender().peak_slowstart_rate_Bps() * 8 / 1000;
  EXPECT_LT(peak_kbps, 2600.0);
}

TEST(TfmccBasic, ReceiverAcquiresRttMeasurement) {
  BasicFixture f;
  f.flow->sender().start(SimTime::zero());
  f.sim.run_until(30_sec);
  EXPECT_TRUE(f.flow->receiver(0).has_rtt_measurement());
  // True path RTT = 2*(2+20+2) = 48 ms; estimate within a factor ~3
  // (queueing inflates it).
  EXPECT_GT(f.flow->receiver(0).rtt(), 40_ms);
  EXPECT_LT(f.flow->receiver(0).rtt(), 150_ms);
}

TEST(TfmccBasic, SingleReceiverBecomesClr) {
  BasicFixture f;
  f.flow->sender().start(SimTime::zero());
  f.sim.run_until(60_sec);
  EXPECT_EQ(f.flow->sender().clr(), 0);
  EXPECT_TRUE(f.flow->receiver(0).is_clr());
}

TEST(TfmccBasic, StopHaltsTransmission) {
  BasicFixture f;
  f.flow->sender().start(SimTime::zero());
  f.sim.run_until(10_sec);
  f.flow->sender().stop();
  const auto sent = f.flow->sender().data_sent();
  f.sim.run_until(20_sec);
  EXPECT_EQ(f.flow->sender().data_sent(), sent);
}

TEST(TfmccBasic, RateIsSmoothInSteadyState) {
  BasicFixture f;
  f.flow->sender().start(SimTime::zero());
  f.sim.run_until(120_sec);
  summary::Welford s;
  for (const auto& pt : f.flow->goodput(0).series_kbps().points()) {
    if (pt.t >= 60_sec && pt.t < 120_sec) s.add(pt.v);
  }
  // Equation-based control: per-second goodput CoV well under TCP's
  // typical sawtooth variability.
  EXPECT_LT(s.cov(), 0.35);
}

TEST(TfmccBasic, HigherBandwidthYieldsHigherRate) {
  BasicFixture slow{0.5e6, 22};
  BasicFixture fast{4e6, 22};
  slow.flow->sender().start(SimTime::zero());
  fast.flow->sender().start(SimTime::zero());
  slow.sim.run_until(90_sec);
  fast.sim.run_until(90_sec);
  EXPECT_GT(fast.flow->goodput(0).mean_kbps(45_sec, 90_sec),
            2.0 * slow.flow->goodput(0).mean_kbps(45_sec, 90_sec));
}

TEST(TfmccBasic, FourReceiversAllReceive) {
  Simulator sim{33};
  Topology topo{sim};
  LinkConfig bn;
  bn.rate_bps = 2e6;
  bn.delay = 10_ms;
  LinkConfig acc;
  acc.rate_bps = 100e6;
  acc.delay = 2_ms;
  const Dumbbell d = make_dumbbell(topo, 1, 4, bn, acc);
  TfmccFlow flow{sim, topo, d.left_hosts[0]};
  for (int i = 0; i < 4; ++i) flow.add_joined_receiver(d.right_hosts[static_cast<size_t>(i)]);
  flow.sender().start(SimTime::zero());
  sim.run_until(60_sec);
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(flow.receiver(i).packets_received(), 500) << "receiver " << i;
  }
}

}  // namespace
}  // namespace tfmcc
