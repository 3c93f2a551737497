#include <gtest/gtest.h>

#include <memory>

#include "mcast/session.hpp"
#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/receiver.hpp"
#include "tfmcc/receiver_block.hpp"
#include "util/stats.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

/// White-box tests of the modeled-receiver tier: craft data packets and
/// inspect the block's shared and per-receiver (SoA) state directly.  The
/// star's second leaf hosts an optional full receiver that add_full()
/// creates with the same id as the block's first receiver; deliver() then
/// feeds both, for side-by-side comparisons.
struct BlockFixture {
  explicit BlockFixture(int count = 5, TfmccConfig tcfg = {},
                        SimTime owd_min = SimTime::zero(),
                        SimTime owd_max = 40_ms)
      : sim{43}, topo{sim}, tcfg{tcfg} {
    LinkConfig cfg;
    cfg.rate_bps = 1e9;
    cfg.delay = 1_ms;
    star = make_star(topo, cfg, {cfg, cfg});
    session = std::make_unique<MulticastSession>(topo, star.sender,
                                                 kTfmccDataPort);
    ModeledReceiverBlock::BlockConfig bc;
    bc.count = count;
    bc.base_id = 100;
    bc.extra_owd_min = owd_min;
    bc.extra_owd_max = owd_max;  // by default receiver i gets i * 10 ms
    block = std::make_unique<ModeledReceiverBlock>(
        sim, *session, star.leaves[0], bc, tcfg, sim.make_rng(67));
    block->join();
  }

  void add_full() {
    full = std::make_unique<TfmccReceiver>(sim, *session, star.leaves[1], 100,
                                           tcfg, sim.make_rng(68));
    full->join();
  }

  /// Deliver a crafted data packet directly to the block.
  void deliver(TfmccDataHeader h, SimTime age = SimTime::millis(20)) {
    Packet p;
    p.uid = sim.next_uid();
    p.src = star.sender;
    p.group = session->group();
    p.dport = kTfmccDataPort;
    p.size_bytes = kDataPacketBytes;
    if (h.send_ts == SimTime::zero()) h.send_ts = sim.now() - age;
    if (h.fb_deadline == SimTime::zero()) h.fb_deadline = 2_sec;
    p.header = h;
    block->handle_packet(p);
    if (full) full->handle_packet(p);
  }

  TfmccDataHeader data(std::int64_t seqno, double rate_kbps = 1000.0) {
    TfmccDataHeader h;
    h.seqno = seqno;
    h.send_rate_Bps = Bps_from_kbps(rate_kbps);
    h.round = round;
    return h;
  }

  void advance(SimTime d) { sim.run_until(sim.now() + d); }

  Simulator sim;
  Topology topo;
  Star star;
  std::unique_ptr<MulticastSession> session;
  TfmccConfig tcfg;
  std::unique_ptr<ModeledReceiverBlock> block;
  std::unique_ptr<TfmccReceiver> full;
  std::int32_t round{1};
};

TEST(ModeledReceiverBlockUnit, SharedLossStateIsPerBlockNotPerReceiver) {
  BlockFixture f;
  for (int i = 0; i < 20; ++i) {
    f.deliver(f.data(i));
    f.advance(10_ms);
  }
  EXPECT_FALSE(f.block->has_loss());
  EXPECT_EQ(f.block->packets_received(), 20);
  f.deliver(f.data(25));  // packets 20..24 lost upstream of the tap
  EXPECT_TRUE(f.block->has_loss());
  EXPECT_EQ(f.block->packets_lost(), 5);
  // One shared history: the loss event rate is a block property.
  EXPECT_GT(f.block->loss_event_rate(), 0.0);
  EXPECT_LT(f.block->loss_event_rate(), 0.1);
}

TEST(ModeledReceiverBlockUnit, SessionAccountsModeledEndpoints) {
  BlockFixture f{50};
  EXPECT_EQ(f.block->endpoint_count(), 50);
  EXPECT_EQ(f.session->modeled_count(), 50);
  EXPECT_EQ(f.session->member_count(), 1);  // one tap on the tree
  EXPECT_EQ(f.session->total_endpoint_count(), 50);
  f.block->leave();
  EXPECT_EQ(f.session->modeled_count(), 0);
  EXPECT_EQ(f.session->total_endpoint_count(), 0);
  EXPECT_FALSE(f.session->is_member(f.star.leaves[0]));
}

TEST(ModeledReceiverBlockUnit, EchoYieldsPerReceiverVirtualRtt) {
  BlockFixture f;
  EXPECT_EQ(f.block->receivers_with_rtt(), 0);
  auto h = f.data(0);
  h.echo.receiver = 102;  // block index 2 (extra one-way delay 20 ms)
  h.echo.ts = f.sim.now() - 80_ms;
  h.echo.delay = 30_ms;  // tap-path sample: 80 - 30 = 50 ms
  f.deliver(h);
  EXPECT_EQ(f.block->receivers_with_rtt(), 1);
  const ModeledRxInfo info = f.block->rx_info(2);
  EXPECT_TRUE(info.has_rtt());
  // Modeled RTT = tap sample + 2 * extra_owd = 50 + 40 = 90 ms.
  EXPECT_EQ(info.rtt_us, 90'000u);
  // The other receivers keep the initial estimate.
  EXPECT_FALSE(f.block->rx_info(0).has_rtt());
  EXPECT_EQ(f.block->rx_info(0).rtt_us, 500'000u);
}

TEST(ModeledReceiverBlockUnit, AccessDelaysAreStratifiedOverTheSpan) {
  // extra_owd(i) = min + (max - min) * i / (n - 1): 3 ms + i * 7 ms here.
  BlockFixture f{7, TfmccConfig{}, 3_ms, 45_ms};
  EXPECT_EQ(f.block->rx_info(0).extra_owd_us, 3'000u);
  EXPECT_EQ(f.block->rx_info(3).extra_owd_us, 24'000u);
  EXPECT_EQ(f.block->rx_info(6).extra_owd_us, 45'000u);
  // A one-receiver block sits at the bottom of the span.
  BlockFixture one{1, TfmccConfig{}, 3_ms, 45_ms};
  EXPECT_EQ(one.block->rx_info(0).extra_owd_us, 3'000u);
}

TEST(ModeledReceiverBlockUnit, EchoForOutsideReceiverIsIgnored) {
  BlockFixture f;
  auto h = f.data(0);
  h.echo.receiver = 7;  // not hosted here (ids are 100..104)
  h.echo.ts = f.sim.now() - 80_ms;
  f.deliver(h);
  EXPECT_EQ(f.block->receivers_with_rtt(), 0);
}

TEST(ModeledReceiverBlockUnit, EligibleCandidatesReportWithinRound) {
  BlockFixture f;
  for (int i = 0; i < 20; ++i) {
    f.deliver(f.data(i));
    f.advance(10_ms);
  }
  f.deliver(f.data(30));  // loss -> finite calc rates
  f.advance(10_ms);
  f.round = 2;
  f.deliver(f.data(31, 100000.0));  // far above any calc rate -> eligible
  f.advance(5_sec);
  EXPECT_GE(f.block->feedback_sent(), 1);
  // The candidate short-list bounds the per-round report count.
  EXPECT_LE(f.block->feedback_sent(), f.block->candidate_cap());
}

TEST(ModeledReceiverBlockUnit, SuppressionByLowerEchoedRate) {
  BlockFixture f;
  for (int i = 0; i < 20; ++i) {
    f.deliver(f.data(i));
    f.advance(10_ms);
  }
  f.deliver(f.data(30));
  f.advance(10_ms);
  f.round = 2;
  f.deliver(f.data(31, 100000.0));  // candidates armed
  auto h = f.data(32, 100000.0);
  h.supp_rate_Bps = 1.0;  // someone far more limited already reported
  f.deliver(h);
  f.advance(5_sec);
  EXPECT_EQ(f.block->feedback_sent(), 0);
}

TEST(ModeledReceiverBlockUnit, ClrMemberReportsPeriodically) {
  BlockFixture f;
  auto h = f.data(0);
  h.echo.receiver = 103;
  h.echo.ts = f.sim.now() - 50_ms;
  h.clr = 103;  // block index 3 is the CLR
  f.deliver(h);
  EXPECT_EQ(f.block->clr_id(), 103);
  EXPECT_TRUE(f.block->rx_info(3).is_clr());
  f.advance(1_sec);
  EXPECT_GT(f.block->feedback_sent(), 5);  // ~1 per RTT, unsuppressed
  // Demotion stops the periodic reports.
  auto h2 = f.data(1);
  h2.clr = 7;  // an outside receiver took over
  f.deliver(h2);
  EXPECT_EQ(f.block->clr_id(), kInvalidReceiver);
  EXPECT_FALSE(f.block->rx_info(3).is_clr());
  const auto sent = f.block->feedback_sent();
  f.advance(2_sec);
  EXPECT_EQ(f.block->feedback_sent(), sent);
}

TEST(ModeledReceiverBlockUnit, LeaveReportsEveryReceiverTheSenderHeard) {
  BlockFixture f;
  auto h = f.data(0);
  h.echo.receiver = 101;
  h.echo.ts = f.sim.now() - 50_ms;
  h.clr = 101;
  f.deliver(h);
  f.advance(500_ms);  // CLR 101 reports a few times
  const auto before = f.block->feedback_sent();
  ASSERT_GT(before, 0);
  f.block->leave();
  // Exactly one leave report per receiver flagged as reported (here: 101).
  EXPECT_EQ(f.block->feedback_sent(), before + 1);
  EXPECT_FALSE(f.block->joined());
  EXPECT_EQ(f.block->endpoint_count(), 1);  // detached agent counts itself
}

TEST(ModeledReceiverBlockUnit, MulticastDeliveryCountsAllEndpoints) {
  BlockFixture f{5};
  auto p = f.sim.make_packet();
  p->src = f.star.sender;
  p->group = f.session->group();
  p->dport = kTfmccDataPort;
  p->size_bytes = kDataPacketBytes;
  TfmccDataHeader h;
  h.seqno = 0;
  h.send_ts = f.sim.now();
  h.fb_deadline = 2_sec;
  p->header = h;
  f.session->send_from_source(p);
  f.sim.run();
  EXPECT_EQ(f.block->packets_received(), 1);
  const Node& tap = f.topo.node(f.star.leaves[0]);
  // One physical delivery, five logical endpoints reached.
  EXPECT_EQ(tap.delivered_local(), 1);
  EXPECT_EQ(tap.delivered_endpoints(), 5);
}

TEST(ModeledReceiverBlockUnit, ClockSyncRescaleMatchesFullReceiver) {
  // With clock sync the Appendix B first interval is synthesised with the
  // clock-sync RTT, so the first echo must rescale it against that RTT and
  // not against initial_rtt.
  TfmccConfig cfg;
  cfg.use_clock_sync = true;
  BlockFixture f{1, cfg};
  f.add_full();
  for (int i = 0; i < 20; ++i) {
    f.deliver(f.data(i));
    f.advance(10_ms);
  }
  f.deliver(f.data(23));  // packets 20..22 lost
  f.advance(10_ms);
  ASSERT_TRUE(f.block->has_loss());
  EXPECT_DOUBLE_EQ(f.block->loss_event_rate(), f.full->loss_event_rate());
  auto h = f.data(24);
  h.echo.receiver = 100;
  h.echo.ts = f.sim.now() - 80_ms;
  h.echo.delay = 20_ms;  // sample 60 ms
  f.deliver(h);
  ASSERT_TRUE(f.full->has_rtt_measurement());
  EXPECT_EQ(f.full->rtt(), 60_ms);
  EXPECT_EQ(f.block->rx_info(0).rtt_us, 60'000u);
  EXPECT_LT(f.full->loss_event_rate(), 0.1);
  EXPECT_DOUBLE_EQ(f.block->loss_event_rate(), f.full->loss_event_rate());
}

TEST(ModeledReceiverBlockUnit, RejoinStartsAFreshMembership) {
  BlockFixture f;
  for (int i = 0; i < 20; ++i) {
    f.deliver(f.data(i));
    f.advance(10_ms);
  }
  auto h = f.data(20);
  h.echo.receiver = 102;
  h.echo.ts = f.sim.now() - 80_ms;
  f.deliver(h);
  ASSERT_EQ(f.block->receivers_with_rtt(), 1);
  f.block->leave();
  f.advance(1_sec);
  f.block->join();
  // The sequence space moved on while the block was away; the gap is not a
  // loss of the new membership, and no RTT of the old one survives.
  for (int i = 500; i < 510; ++i) {
    f.deliver(f.data(i));
    f.advance(10_ms);
  }
  EXPECT_EQ(f.block->packets_received(), 10);
  EXPECT_EQ(f.block->packets_lost(), 0);
  EXPECT_FALSE(f.block->has_loss());
  EXPECT_DOUBLE_EQ(f.block->loss_event_rate(), 0.0);
  EXPECT_EQ(f.block->receivers_with_rtt(), 0);
  EXPECT_FALSE(f.block->rx_info(2).has_rtt());
  EXPECT_EQ(f.block->rx_info(2).rtt_us, 500'000u);
}

}  // namespace
}  // namespace tfmcc
