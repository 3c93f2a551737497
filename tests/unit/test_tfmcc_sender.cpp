#include <gtest/gtest.h>

#include <memory>

#include "mcast/session.hpp"
#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/sender.hpp"
#include "tfmcc/sender_core.hpp"
#include "util/stats.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

/// White-box sender tests: craft receiver reports and inspect the sender's
/// reaction directly, without the full feedback loop.
struct SenderFixture {
  SenderFixture() : sim{31}, topo{sim} {
    LinkConfig cfg;
    cfg.rate_bps = 1e9;
    cfg.delay = 1_ms;
    star = make_star(topo, cfg, {cfg, cfg, cfg});
    session = std::make_unique<MulticastSession>(topo, star.sender,
                                                 kTfmccDataPort);
    sender = std::make_unique<TfmccSender>(sim, *session, TfmccConfig{});
    sender->start(SimTime::zero());
    sim.run_until(100_ms);
  }

  /// Deliver a crafted report to the sender as if it arrived from the net.
  void inject(TfmccFeedbackHeader f) {
    Packet p;
    p.uid = sim.next_uid();
    p.src = star.leaves[0];
    p.dst = star.sender;
    p.dport = kTfmccSenderPort;
    p.size_bytes = kFeedbackPacketBytes;
    if (f.ts == SimTime::zero()) f.ts = sim.now();
    p.header = f;
    sender->handle_packet(p);
  }

  static TfmccFeedbackHeader report(std::int32_t receiver, double rate_kbps,
                                    double p_loss = 0.01,
                                    double recv_kbps = 0.0) {
    TfmccFeedbackHeader f;
    f.receiver = receiver;
    f.calc_rate_Bps = Bps_from_kbps(rate_kbps);
    f.recv_rate_Bps =
        Bps_from_kbps(recv_kbps > 0.0 ? recv_kbps : rate_kbps);
    f.loss_event_rate = p_loss;
    f.has_rtt = true;
    f.rtt = SimTime::millis(50);
    f.has_loss = true;
    return f;
  }

  Simulator sim;
  Topology topo;
  Star star;
  std::unique_ptr<MulticastSession> session;
  std::unique_ptr<TfmccSender> sender;
};

TEST(TfmccSenderUnit, FirstLossReportEndsSlowstartAndSetsClr) {
  SenderFixture f;
  ASSERT_TRUE(f.sender->in_slowstart());
  f.inject(SenderFixture::report(0, 500.0));
  EXPECT_FALSE(f.sender->in_slowstart());
  EXPECT_EQ(f.sender->clr(), 0);
}

TEST(TfmccSenderUnit, LowerReportSwitchesClrAndDropsRateImmediately) {
  SenderFixture f;
  f.inject(SenderFixture::report(0, 800.0));  // exits slowstart, CLR = 0
  // A second CLR report lifts the rate from the tiny initial value (the
  // exit kept min(initial, reported)) up to the reported 800 kbit/s.
  f.inject(SenderFixture::report(0, 800.0));
  f.sim.run_until(200_ms);
  ASSERT_GT(f.sender->rate_Bps(), Bps_from_kbps(300.0));
  f.inject(SenderFixture::report(1, 200.0));
  EXPECT_EQ(f.sender->clr(), 1);
  EXPECT_LE(f.sender->rate_Bps(), Bps_from_kbps(200.0) + 1.0);
}

TEST(TfmccSenderUnit, ReportAboveCurrentRateDoesNotSwitchClr) {
  SenderFixture f;
  f.inject(SenderFixture::report(0, 100.0));
  f.inject(SenderFixture::report(0, 100.0));
  // Receiver 1 claims 200 kbit/s — *above* the current 100 kbit/s rate, so
  // per §2.2 it must not displace the CLR.
  f.inject(SenderFixture::report(1, 200.0));
  EXPECT_EQ(f.sender->clr(), 0);
}

TEST(TfmccSenderUnit, ReportsAboveTheClrRateDoNotSwitchAtTheRateFloor) {
  SenderFixture f;
  // The floor is half a packet per initial RTT: 1000 B/s = 8 kbit/s.  A
  // 4 kbit/s CLR holds the sending rate at the floor, above its own rate.
  f.inject(SenderFixture::report(0, 4.0));
  ASSERT_EQ(f.sender->clr(), 0);
  const double floor_rate = f.sender->rate_Bps();
  ASSERT_DOUBLE_EQ(floor_rate, Bps_from_kbps(8.0));
  // Reports between the CLR's rate and the floor beat the sending rate but
  // not the CLR: they must not take it over (no thrash at the floor).
  for (std::int32_t rx = 1; rx <= 2; ++rx) {
    f.inject(SenderFixture::report(rx, 6.0));
    EXPECT_EQ(f.sender->clr(), 0) << "receiver " << rx;
    EXPECT_DOUBLE_EQ(f.sender->rate_Bps(), floor_rate);
  }
  EXPECT_EQ(f.sender->clr_history().size(), 1u);
  // A report below the CLR's own rate still switches it.
  f.inject(SenderFixture::report(2, 2.0));
  EXPECT_EQ(f.sender->clr(), 2);
  EXPECT_EQ(f.sender->clr_history().size(), 2u);
}

TEST(TfmccSenderUnit, HigherReportFromNonClrIsIgnored) {
  SenderFixture f;
  f.inject(SenderFixture::report(0, 300.0));
  const double rate = f.sender->rate_Bps();
  f.inject(SenderFixture::report(1, 5000.0));
  EXPECT_EQ(f.sender->clr(), 0);
  EXPECT_DOUBLE_EQ(f.sender->rate_Bps(), rate);
}

TEST(TfmccSenderUnit, ClrIncreaseIsBoundedByReceiveRateCap) {
  SenderFixture f;
  f.inject(SenderFixture::report(0, 300.0, 0.01, 300.0));
  // The CLR now claims a much higher equation rate but its measured
  // receive rate is still 350 kbit/s: the sender may at most double it.
  f.inject(SenderFixture::report(0, 4000.0, 0.001, 350.0));
  EXPECT_LE(f.sender->rate_Bps(), Bps_from_kbps(700.0) + 1.0);
}

TEST(TfmccSenderUnit, LeaveOfClrPromotesNextWorstReceiver) {
  SenderFixture f;
  f.inject(SenderFixture::report(0, 200.0));
  f.inject(SenderFixture::report(1, 400.0));
  f.inject(SenderFixture::report(2, 900.0));
  ASSERT_EQ(f.sender->clr(), 0);
  TfmccFeedbackHeader leave;
  leave.receiver = 0;
  leave.leaving = true;
  f.inject(leave);
  EXPECT_EQ(f.sender->clr(), 1);  // next-lowest known rate
}

TEST(TfmccSenderUnit, RampAfterClrLeaveLimitsIncrease) {
  SenderFixture f;
  f.inject(SenderFixture::report(0, 200.0));
  f.inject(SenderFixture::report(1, 2000.0, 0.001, 2000.0));
  TfmccFeedbackHeader leave;
  leave.receiver = 0;
  leave.leaving = true;
  f.inject(leave);
  ASSERT_EQ(f.sender->clr(), 1);
  // Immediately after the switch the rate must still be near the old CLR's
  // 200 kbit/s, not jump to 2000 (increase capped at ~1 pkt/RTT per
  // report).
  EXPECT_LT(f.sender->rate_Bps(), Bps_from_kbps(500.0));
}

TEST(TfmccSenderUnit, LeaveOfLastReceiverReentersSlowstart) {
  SenderFixture f;
  f.inject(SenderFixture::report(0, 300.0));
  ASSERT_FALSE(f.sender->in_slowstart());
  TfmccFeedbackHeader leave;
  leave.receiver = 0;
  leave.leaving = true;
  f.inject(leave);
  EXPECT_EQ(f.sender->clr(), kInvalidReceiver);
  EXPECT_TRUE(f.sender->in_slowstart());
}

TEST(TfmccSenderUnit, RoundCounterAdvances) {
  SenderFixture f;
  const auto r0 = f.sender->round();
  f.sim.run_until(10_sec);
  EXPECT_GT(f.sender->round(), r0);
}

TEST(TfmccSenderUnit, RoundDurationUsesMaxRttEstimate) {
  SenderFixture f;
  // Known receiver with a valid 50 ms RTT and a rate high enough that the
  // low-rate guard does not bind: T = 4 * max(RTT).  The initial round ran
  // with T = 2 s (initial RTT + low-rate guard), so the shortened round
  // becomes visible right after it ends — and before the CLR silence
  // timeout (10 * T) would discard our silent receiver.
  f.inject(SenderFixture::report(0, 2000.0));
  f.inject(SenderFixture::report(0, 2000.0));
  f.sim.run_until(SimTime::millis(2100));
  EXPECT_LE(f.sender->round_duration(), 4.0 * 50_ms + 100_ms);
  // A receiver without an RTT measurement forces T back to the initial
  // 500 ms scale (footnote 7).
  TfmccFeedbackHeader no_rtt = SenderFixture::report(1, 1900.0);
  no_rtt.has_rtt = false;
  f.inject(no_rtt);
  f.inject(SenderFixture::report(0, 2000.0));  // keep the CLR alive
  f.sim.run_until(SimTime::millis(2500));
  EXPECT_GE(f.sender->round_duration(), 4.0 * 400_ms);
}

TEST(TfmccSenderUnit, SilentClrTimesOutWithoutAnyTraffic) {
  SenderFixture f;
  f.inject(SenderFixture::report(0, 2000.0));
  f.inject(SenderFixture::report(0, 2000.0));
  ASSERT_EQ(f.sender->clr(), 0);
  // No further reports at all: after 10 feedback delays the sender must
  // declare the CLR dead rather than keep increasing on stale state.
  f.sim.run_until(30_sec);
  EXPECT_NE(f.sender->clr(), 0);
}

TEST(TfmccSenderUnit, LowRateGuardStretchesRound) {
  SenderFixture f;
  // Rate stuck at the slowstart-exit minimum (~2 kB/s): the §2.5.3 guard
  // must stretch the round to (c+1) packet intervals, far beyond 4 RTTs.
  f.inject(SenderFixture::report(0, 500.0));
  f.sim.run_until(5_sec);
  const double pkt_interval_s =
      kDataPacketBytes / std::max(f.sender->rate_Bps(), 1.0);
  EXPECT_GE(f.sender->round_duration(),
            SimTime::seconds(4.0 * pkt_interval_s) - 1_ms);
}

TEST(TfmccSenderUnit, KnownReceiverBookkeeping) {
  SenderFixture f;
  EXPECT_EQ(f.sender->known_receivers(), 0);
  f.inject(SenderFixture::report(0, 500.0));
  f.inject(SenderFixture::report(1, 600.0));
  EXPECT_EQ(f.sender->known_receivers(), 2);
  EXPECT_EQ(f.sender->known_receivers_with_rtt(), 2);
  TfmccFeedbackHeader no_rtt = SenderFixture::report(2, 700.0);
  no_rtt.has_rtt = false;
  f.inject(no_rtt);
  EXPECT_EQ(f.sender->known_receivers_with_rtt(), 2);
  EXPECT_EQ(f.sender->known_receivers(), 3);
}

// The core alone, without a simulator: each call returns what it decided.
TEST(SenderCoreUnit, ReturnsWhatEachCallDecided) {
  using D = SenderDecision;
  SenderCore core{TfmccConfig{}};
  SimTime now = 10_ms;
  EXPECT_EQ(core.on_round(now).kinds, 0u);
  EXPECT_EQ(core.round(), 1);

  auto report = [&](std::int32_t rx, double kbps) {
    TfmccFeedbackHeader f = SenderFixture::report(rx, kbps);
    f.round = core.round();
    f.ts = now;
    return core.on_feedback(now, f);
  };
  EXPECT_EQ(report(0, 400.0).kinds, D::kSlowstartExited | D::kClrSwitched);
  EXPECT_FALSE(core.in_slowstart());
  EXPECT_EQ(report(0, 400.0).kinds, unsigned{D::kClrRateUpdated});
  EXPECT_EQ(report(1, 800.0).kinds, 0u);  // above the CLR: no change
  EXPECT_EQ(report(1, 100.0).kinds, unsigned{D::kClrSwitched});
  EXPECT_EQ(core.clr(), 1);
  // The next packet echoes the new CLR first (§2.4.2).
  EXPECT_EQ(core.next_data(now).echo.receiver, 1);

  TfmccFeedbackHeader leave;
  leave.receiver = 1;
  leave.leaving = true;
  EXPECT_EQ(core.on_feedback(now, leave).kinds,
            D::kClrLost | D::kClrSwitched);
  EXPECT_EQ(core.clr(), 0);
  // A CLR silent for kClrTimeoutMult rounds is lost; nobody else is left.
  now += kClrTimeoutMult * core.round_duration() + 1_ms;
  EXPECT_EQ(core.on_round(now).kinds, D::kClrLost | D::kSlowstartReentered);
  EXPECT_TRUE(core.in_slowstart());
  EXPECT_EQ(core.known_receivers(), 0);
}

}  // namespace
}  // namespace tfmcc
