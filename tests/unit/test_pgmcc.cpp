#include "pgmcc/pgmcc.hpp"

#include <gtest/gtest.h>

#include "net/builders.hpp"
#include "sim/simulator.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

constexpr PortId kDataPort = 12;

struct PgmccFixture {
  PgmccFixture(std::vector<LinkConfig> leaf_cfgs, std::uint64_t seed = 71)
      : sim{seed}, topo{sim} {
    LinkConfig trunk;
    trunk.rate_bps = 10e6;
    trunk.delay = 5_ms;
    star = make_star(topo, trunk, leaf_cfgs);
    session = std::make_unique<MulticastSession>(topo, star.sender, kDataPort);
    sender = std::make_unique<PgmccSender>(sim, *session);
    for (std::size_t i = 0; i < leaf_cfgs.size(); ++i) {
      receivers.push_back(std::make_unique<PgmccReceiver>(
          sim, *session, star.leaves[i], static_cast<std::int32_t>(i),
          sim.make_rng(901 + i)));
      receivers.back()->join();
    }
  }
  Simulator sim;
  Topology topo;
  Star star;
  std::unique_ptr<MulticastSession> session;
  std::unique_ptr<PgmccSender> sender;
  std::vector<std::unique_ptr<PgmccReceiver>> receivers;
};

LinkConfig leaf(double loss, SimTime delay = SimTime::millis(15)) {
  LinkConfig l;
  l.rate_bps = 10e6;
  l.delay = delay;
  l.loss_rate = loss;
  return l;
}

TEST(Pgmcc, ElectsAnAckerAndTransfersData) {
  PgmccFixture f{{leaf(0.01), leaf(0.001)}};
  f.sender->start(SimTime::zero());
  f.sim.run_until(60_sec);
  EXPECT_NE(f.sender->acker(), kInvalidReceiver);
  EXPECT_GT(f.sender->data_sent(), 200);
  EXPECT_GT(f.receivers[0]->packets_received(), 200);
}

TEST(Pgmcc, WorstReceiverBecomesAcker) {
  PgmccFixture f{{leaf(0.001), leaf(0.05)}};
  f.sender->start(SimTime::zero());
  f.sim.run_until(90_sec);
  EXPECT_EQ(f.sender->acker(), 1);
  EXPECT_TRUE(f.receivers[1]->is_acker());
  EXPECT_FALSE(f.receivers[0]->is_acker());
}

TEST(Pgmcc, HighRttReceiverBecomesAcker) {
  PgmccFixture f{{leaf(0.01, 10_ms), leaf(0.01, 150_ms)}};
  f.sender->start(SimTime::zero());
  f.sim.run_until(120_sec);
  EXPECT_EQ(f.sender->acker(), 1);
}

TEST(Pgmcc, AckerAcksEveryReceivedPacket) {
  PgmccFixture f{{leaf(0.0)}};
  f.sender->start(SimTime::zero());
  f.sim.run_until(30_sec);
  ASSERT_EQ(f.sender->acker(), 0);
  // All packets after election are ACKed; allow for the pre-election start.
  EXPECT_GE(f.receivers[0]->acks_sent(),
            f.receivers[0]->packets_received() - 20);
}

TEST(Pgmcc, WindowHalvesOnLoss) {
  PgmccFixture f{{leaf(0.02)}};
  f.sender->start(SimTime::zero());
  f.sim.run_until(60_sec);
  EXPECT_GT(f.sender->window_halvings(), 3);
}

TEST(Pgmcc, ThroughputTracksAckerConditions) {
  // 2% loss, ~40 ms RTT: the TCP model allows roughly 1.5-3 Mbit/s.
  PgmccFixture f{{leaf(0.02, 15_ms)}};
  f.sender->start(SimTime::zero());
  f.sim.run_until(120_sec);
  const double kbps =
      static_cast<double>(f.receivers[0]->packets_received()) *
      kDataPacketBytes * 8.0 / 1000.0 / 120.0;
  EXPECT_GT(kbps, 300.0);
  EXPECT_LT(kbps, 9000.0);
}

TEST(Pgmcc, SurvivesAckerLeave) {
  PgmccFixture f{{leaf(0.02), leaf(0.002)}};
  f.sender->start(SimTime::zero());
  f.sim.run_until(60_sec);
  ASSERT_EQ(f.sender->acker(), 0);
  const auto sent_before = f.sender->data_sent();
  f.receivers[0]->leave();
  f.sim.run_until(180_sec);
  // The RTO path keeps the session alive; receiver 1's reports eventually
  // make it the acker.
  EXPECT_GT(f.sender->data_sent(), sent_before + 50);
}

TEST(Pgmcc, StopIsQuiescent) {
  PgmccFixture f{{leaf(0.01)}};
  f.sender->start(SimTime::zero());
  f.sim.run_until(10_sec);
  f.sender->stop();
  const auto sent = f.sender->data_sent();
  f.sim.run_until(20_sec);
  EXPECT_EQ(f.sender->data_sent(), sent);
}

}  // namespace
}  // namespace tfmcc
