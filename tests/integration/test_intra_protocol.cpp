#include <gtest/gtest.h>

#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/flow.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

/// Intra-protocol fairness: multiple TFMCC sessions sharing one bottleneck
/// (§4.1 claims intra-protocol fairness alongside TCP-fairness, improving
/// further under RED).

struct TwoFlowFixture {
  explicit TwoFlowFixture(bool red = false, std::uint64_t seed = 95)
      : sim{seed}, topo{sim} {
    LinkConfig bn;
    bn.rate_bps = 2e6;
    bn.delay = 20_ms;
    bn.queue_limit_packets = 25;
    bn.use_red = red;
    bn.jitter = SimTime::millis(1);
    LinkConfig acc;
    acc.rate_bps = 1e9;
    acc.delay = 2_ms;
    dumbbell = make_dumbbell(topo, 2, 2, bn, acc);
    a = std::make_unique<TfmccFlow>(sim, topo, dumbbell.left_hosts[0],
                                    TfmccConfig{}, 7000);
    a->add_joined_receiver(dumbbell.right_hosts[0]);
    b = std::make_unique<TfmccFlow>(sim, topo, dumbbell.left_hosts[1],
                                    TfmccConfig{}, 8000);
    b->add_joined_receiver(dumbbell.right_hosts[1]);
  }
  Simulator sim;
  Topology topo;
  Dumbbell dumbbell;
  std::unique_ptr<TfmccFlow> a, b;
};

TEST(IntraProtocol, TwoFlowsShareTheBottleneck) {
  TwoFlowFixture f;
  f.a->sender().start(SimTime::zero());
  f.b->sender().start(500_ms);
  f.sim.run_until(300_sec);
  const double ra = f.a->goodput(0).mean_kbps(120_sec, 300_sec);
  const double rb = f.b->goodput(0).mean_kbps(120_sec, 300_sec);
  EXPECT_GT(ra + rb, 1200.0);  // utilisation
  EXPECT_GT(ra / rb, 1.0 / 3.0);
  EXPECT_LT(ra / rb, 3.0);
}

TEST(IntraProtocol, LateStarterIsNotLockedOut) {
  TwoFlowFixture f;
  f.a->sender().start(SimTime::zero());
  f.b->sender().start(120_sec);  // a has the link saturated by then
  f.sim.run_until(420_sec);
  const double rb = f.b->goodput(0).mean_kbps(300_sec, 420_sec);
  EXPECT_GT(rb, 250.0);  // gets a real share of the 2 Mbit/s link
}

TEST(IntraProtocol, RedImprovesIntraFairness) {
  TwoFlowFixture droptail{false, 96};
  TwoFlowFixture red{true, 96};
  for (auto* f : {&droptail, &red}) {
    f->a->sender().start(SimTime::zero());
    f->b->sender().start(500_ms);
    f->sim.run_until(300_sec);
  }
  auto distance = [](TwoFlowFixture& f) {
    const double ra = f.a->goodput(0).mean_kbps(120_sec, 300_sec);
    const double rb = f.b->goodput(0).mean_kbps(120_sec, 300_sec);
    return std::fabs(std::log(std::max(ra, 1.0) / std::max(rb, 1.0)));
  };
  // §4: active queueing improves intra-protocol fairness (allow slack for
  // one seed's noise).
  EXPECT_LT(distance(red), distance(droptail) + 0.4);
}

TEST(IntraProtocol, FlowStopReleasesBandwidth) {
  TwoFlowFixture f;
  f.a->sender().start(SimTime::zero());
  f.b->sender().start(500_ms);
  f.sim.run_until(180_sec);
  f.a->sender().stop();
  f.sim.run_until(420_sec);
  EXPECT_GT(f.b->goodput(0).mean_kbps(330_sec, 420_sec), 900.0);
}

}  // namespace
}  // namespace tfmcc
