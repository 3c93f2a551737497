// Figure 11: responsiveness to changes in the loss rate.  Star topology,
// four receivers behind links with loss rates 0.1%, 0.5%, 2.5% and 12.5%
// (60 ms RTT).  Receivers join in order of loss rate at t = 100, 150, 200,
// 250 s and leave in reverse order at 300, 350 s...; a TCP flow to each
// receiver runs throughout for comparison.
//
// Paper claims: TFMCC steps down to each new CLR's TCP-fair level within
// seconds of a join (one to three seconds of suppression delay early on)
// and steps back up on leaves.

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig11_loss_responsiveness,
               "Figure 11: responsiveness to changes in the loss rate",
               tfmcc::param("loss1", 0.001, "loss rate of receiver 1's leaf", 0.0),
               tfmcc::param("loss2", 0.005, "loss rate of receiver 2's leaf", 0.0),
               tfmcc::param("loss3", 0.025, "loss rate of receiver 3's leaf", 0.0),
               tfmcc::param("loss4", 0.125, "loss rate of receiver 4's leaf", 0.0),
               tfmcc::param("trunk_bps", 20e6, "trunk/leaf link rate", 1e3)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 11", "Responsiveness to changes in loss rate");

  TfmccConfig cfg;

  // The join/leave schedule is scripted on the paper's 400 s timeline and
  // rescaled proportionally onto the requested horizon, so short runs still
  // fire every join and leave.
  const SimTime kRefT = 400_sec;
  const SimTime T = opts.duration_or(kRefT);
  const double kLoss[4] = {
      opts.param_or("loss1", 0.001), opts.param_or("loss2", 0.005),
      opts.param_or("loss3", 0.025), opts.param_or("loss4", 0.125)};
  const double trunk_bps = opts.param_or("trunk_bps", 20e6);
  Simulator sim{opts.seed_or(111)};
  Topology topo{sim};

  LinkConfig trunk;
  trunk.jitter = bench::kPhaseJitter;
  trunk.rate_bps = trunk_bps;
  trunk.delay = 10_ms;
  std::vector<LinkConfig> leaves(4);
  for (int i = 0; i < 4; ++i) {
    leaves[static_cast<size_t>(i)].rate_bps = trunk_bps;
    leaves[static_cast<size_t>(i)].delay = 20_ms;
    leaves[static_cast<size_t>(i)].loss_rate = kLoss[static_cast<size_t>(i)];
  }
  Star star = make_star(topo, trunk, leaves);
  // TCP comparison flows need their own sources so only the lossy leaf
  // links are shared.
  std::vector<NodeId> tcp_src(4);
  for (int i = 0; i < 4; ++i) {
    tcp_src[static_cast<size_t>(i)] = topo.add_node();
    topo.add_duplex_link(tcp_src[static_cast<size_t>(i)], star.hub, trunk);
  }
  topo.compute_routes();

  TfmccFlow tfmcc{sim, topo, star.sender, cfg};
  std::vector<std::unique_ptr<TcpFlow>> tcp;
  for (int i = 0; i < 4; ++i) {
    tfmcc.add_receiver(star.leaves[static_cast<size_t>(i)]);
    tcp.push_back(std::make_unique<TcpFlow>(sim, topo, tcp_src[static_cast<size_t>(i)],
                                            star.leaves[static_cast<size_t>(i)], i));
    tcp.back()->start(SimTime::millis(41 * i));
  }
  // Receiver 0 (lowest loss) is present from the start.
  tfmcc.receiver(0).join();
  tfmcc.sender().start(SimTime::zero());

  // Joins at 100/150/200 s; leaves at 250/300/350 s (reverse order) — on
  // the reference timeline, warped onto [0, T].
  ScheduleBuilder sched{sim, kRefT, T};
  for (int i = 1; i < 4; ++i) {
    sched.at(SimTime::seconds(50.0 + 50.0 * i),
             [&tfmcc, i] { tfmcc.receiver(i).join(); });
  }
  for (int i = 3; i >= 1; --i) {
    sched.at(SimTime::seconds(250.0 + 50.0 * (3 - i)),
             [&tfmcc, i] { tfmcc.receiver(i).leave(); });
  }
  sim.run_until(T);

  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  bench::emit_series(csv, "TFMCC", tfmcc.goodput(0), 0_sec, T);
  for (int i = 0; i < 4; ++i) {
    bench::emit_series(csv, "TCP " + std::to_string(i + 1),
                       tcp[static_cast<size_t>(i)]->goodput, 0_sec, T);
  }

  // Epoch means: receiver k joined during [100+50(k-1), 100+50k) on the
  // reference timeline; the windows warp with the schedule.
  const auto w = [&sched](double s) { return sched.warped(SimTime::seconds(s)); };
  const double e0 = tfmcc.goodput(0).mean_kbps(w(60), w(100));    // only r0
  const double e1 = tfmcc.goodput(0).mean_kbps(w(110), w(150));   // + r1
  const double e2 = tfmcc.goodput(0).mean_kbps(w(160), w(200));   // + r2
  const double e3 = tfmcc.goodput(0).mean_kbps(w(210), w(250));   // + r3
  const double back = tfmcc.goodput(0).mean_kbps(w(370), w(400)); // only r0

  bench::note(opts.out(), "epoch means (kbit/s): r0=" + std::to_string(e0) +
              " +r1=" + std::to_string(e1) + " +r2=" + std::to_string(e2) +
              " +r3=" + std::to_string(e3) + " after leaves=" +
              std::to_string(back));
  bench::note_schedule(opts.out(), sched);
  bench::check(opts.out(), e1 < e0 && e2 < e1 && e3 < e2,
               "each join steps the rate down to the new worst receiver");
  bench::check(opts.out(), back > 2.0 * e3, "rate recovers after the lossy receivers leave");
  const double tcp3 = tcp[3]->mean_kbps(w(210), w(250));
  bench::check(opts.out(), e3 > tcp3 / 3.0 && e3 < tcp3 * 3.0,
               "TFMCC tracks the 12.5%-loss receiver's TCP-fair rate");
  const double tcp2 = tcp[2]->mean_kbps(w(160), w(200));
  bench::check(opts.out(), e2 > tcp2 / 3.0 && e2 < tcp2 * 3.0,
               "TFMCC tracks the 2.5%-loss receiver's TCP-fair rate");
  return 0;
}
