#include <gtest/gtest.h>

#include "analysis/summary.hpp"
#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp.hpp"
#include "tfmcc/flow.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

/// TFMCC vs TCP over a shared bottleneck (the fig. 9 setting, scaled down
/// for test runtime): the flows must share within the paper's notion of
/// TCP-friendliness, and TFMCC must be the smoother one.
struct FairnessFixture {
  FairnessFixture(double bottleneck_bps, int n_tcp, std::uint64_t seed = 41)
      : sim{seed}, topo{sim} {
    LinkConfig bn;
    bn.rate_bps = bottleneck_bps;
    bn.delay = 20_ms;
    LinkConfig acc;
    acc.rate_bps = 100e6;
    acc.delay = 2_ms;
    dumbbell = make_dumbbell(topo, 1 + n_tcp, 1 + n_tcp, bn, acc);
    flow = std::make_unique<TfmccFlow>(sim, topo, dumbbell.left_hosts[0]);
    flow->add_joined_receiver(dumbbell.right_hosts[0]);
    for (int i = 0; i < n_tcp; ++i) {
      tcp.push_back(std::make_unique<TcpFlow>(
          sim, topo, dumbbell.left_hosts[static_cast<size_t>(i + 1)],
          dumbbell.right_hosts[static_cast<size_t>(i + 1)], i));
    }
  }

  void run(SimTime until) {
    flow->sender().start(SimTime::zero());
    for (size_t i = 0; i < tcp.size(); ++i) {
      tcp[i]->start(SimTime::millis(37 * static_cast<int64_t>(i)));
    }
    sim.run_until(until);
  }

  Simulator sim;
  Topology topo;
  Dumbbell dumbbell;
  std::unique_ptr<TfmccFlow> flow;
  std::vector<std::unique_ptr<TcpFlow>> tcp;
};

TEST(TfmccFairness, SharesWithOneTcp) {
  FairnessFixture f{2e6, 1};
  f.run(180_sec);
  const double tfmcc_kbps = f.flow->goodput(0).mean_kbps(60_sec, 180_sec);
  const double tcp_kbps = f.tcp[0]->mean_kbps(60_sec, 180_sec);
  // Medium-term fairness within a factor of ~3 either way (the paper's
  // TCP-friendliness is a "no worse than another TCP" criterion, not
  // exact equality).
  EXPECT_GT(tfmcc_kbps, tcp_kbps / 3.0);
  EXPECT_LT(tfmcc_kbps, tcp_kbps * 3.0);
  // Link is well utilised.
  EXPECT_GT(tfmcc_kbps + tcp_kbps, 1500.0);
}

TEST(TfmccFairness, SharesWithFourTcps) {
  FairnessFixture f{4e6, 4};
  f.run(180_sec);
  const double tfmcc_kbps = f.flow->goodput(0).mean_kbps(60_sec, 180_sec);
  double tcp_total = 0.0;
  for (const auto& t : f.tcp) tcp_total += t->mean_kbps(60_sec, 180_sec);
  const double tcp_avg = tcp_total / 4.0;
  EXPECT_GT(tfmcc_kbps, tcp_avg / 3.5);
  EXPECT_LT(tfmcc_kbps, tcp_avg * 3.5);
}

TEST(TfmccFairness, SmootherThanTcp) {
  FairnessFixture f{2e6, 1};
  f.run(180_sec);
  summary::Welford s_tfmcc, s_tcp;
  for (const auto& p : f.flow->goodput(0).series_kbps().points()) {
    if (p.t >= 60_sec) s_tfmcc.add(p.v);
  }
  for (const auto& p : f.tcp[0]->goodput.series_kbps().points()) {
    if (p.t >= 60_sec) s_tcp.add(p.v);
  }
  // §1.1/§4.1: TFMCC's raison d'etre vs TCP — a smoother rate.
  EXPECT_LT(s_tfmcc.cov(), s_tcp.cov());
}

TEST(TfmccFairness, TcpRecoversAfterTfmccStops) {
  FairnessFixture f{2e6, 1};
  f.flow->sender().start(SimTime::zero());
  f.tcp[0]->start(SimTime::zero());
  f.sim.run_until(90_sec);
  f.flow->sender().stop();
  f.sim.run_until(180_sec);
  // With TFMCC gone, TCP should claim (nearly) the whole bottleneck.
  EXPECT_GT(f.tcp[0]->mean_kbps(120_sec, 180_sec), 1500.0);
}

TEST(TfmccFairness, InsensitiveToReturnPathLoss) {
  // Fig. 19's core claim: TFMCC is insensitive to the loss of receiver
  // reports.  Run the same scenario with and without reverse-path loss.
  auto run_scenario = [](double reverse_loss) {
    Simulator sim{55};
    Topology topo{sim};
    const NodeId s = topo.add_node();
    const NodeId r = topo.add_node();
    LinkConfig fwd;
    fwd.rate_bps = 1e6;
    fwd.delay = 20_ms;
    LinkConfig rev = fwd;
    rev.loss_rate = reverse_loss;
    topo.add_link(s, r, fwd);
    topo.add_link(r, s, rev);
    topo.compute_routes();
    TfmccFlow flow{sim, topo, s};
    flow.add_joined_receiver(r);
    flow.sender().start(SimTime::zero());
    sim.run_until(120_sec);
    return flow.goodput(0).mean_kbps(60_sec, 120_sec);
  };
  const double clean = run_scenario(0.0);
  const double lossy = run_scenario(0.2);
  EXPECT_GT(lossy, 0.5 * clean);
}

}  // namespace
}  // namespace tfmcc
