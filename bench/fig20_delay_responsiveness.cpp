// Figure 20 (Appendix D.2): responsiveness to network delay.  The fig. 11
// setting with the loss rates replaced by per-receiver one-way link delays
// of 30, 60, 120 and 240 ms; receivers join in order of their RTT and
// leave in reverse order.
//
// Paper claims: behaviour mirrors fig. 11 — each join steps the rate down
// to the new highest-RTT receiver's TCP-fair level almost instantly (the
// receiver set is small), and the rate recovers on leaves.

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig20_delay_responsiveness,
               "Figure 20: responsiveness to per-receiver network delay",
               tfmcc::param("delay1_ms", 15, "one-way leaf delay, receiver 1", 0),
               tfmcc::param("delay2_ms", 30, "one-way leaf delay, receiver 2", 0),
               tfmcc::param("delay3_ms", 60, "one-way leaf delay, receiver 3", 0),
               tfmcc::param("delay4_ms", 120, "one-way leaf delay, receiver 4",
                            0),
               tfmcc::param("loss_rate", 0.005, "leaf loss rate (equal)", 0.0),
               tfmcc::param("trunk_bps", 20e6, "trunk/leaf link rate", 1e3)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 20", "Responsiveness to network delay");

  TfmccConfig cfg;

  const SimTime kRefT = 400_sec;
  const SimTime T = opts.duration_or(kRefT);
  const std::int64_t kDelayMs[4] = {
      opts.param_or<std::int64_t>("delay1_ms", 15),
      opts.param_or<std::int64_t>("delay2_ms", 30),
      opts.param_or<std::int64_t>("delay3_ms", 60),
      opts.param_or<std::int64_t>("delay4_ms", 120)};  // one-way, 2 hops each
  const double loss_rate = opts.param_or("loss_rate", 0.005);
  const double trunk_bps = opts.param_or("trunk_bps", 20e6);
  Simulator sim{opts.seed_or(201)};
  Topology topo{sim};
  LinkConfig trunk;
  trunk.jitter = bench::kPhaseJitter;
  trunk.rate_bps = trunk_bps;
  trunk.delay = 0_ms;
  std::vector<LinkConfig> leaves(4);
  for (int i = 0; i < 4; ++i) {
    leaves[static_cast<size_t>(i)].rate_bps = trunk_bps;
    leaves[static_cast<size_t>(i)].delay = SimTime::millis(kDelayMs[static_cast<size_t>(i)]);
    leaves[static_cast<size_t>(i)].loss_rate = loss_rate;  // equal loss; RTT differentiates
  }
  Star star = make_star(topo, trunk, leaves);
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
  tfmcc.receiver(0).join();
  tfmcc.sender().start(SimTime::zero());
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

  const auto w = [&sched](double s) { return sched.warped(SimTime::seconds(s)); };
  const double e0 = tfmcc.goodput(0).mean_kbps(w(60), w(100));
  const double e1 = tfmcc.goodput(0).mean_kbps(w(110), w(150));
  const double e2 = tfmcc.goodput(0).mean_kbps(w(160), w(200));
  const double e3 = tfmcc.goodput(0).mean_kbps(w(210), w(250));
  const double back = tfmcc.goodput(0).mean_kbps(w(370), w(400));

  bench::note(opts.out(), "epoch means (kbit/s): 30ms=" + std::to_string(e0) + " +60ms=" +
              std::to_string(e1) + " +120ms=" + std::to_string(e2) +
              " +240ms=" + std::to_string(e3) + " after leaves=" +
              std::to_string(back));
  bench::note_schedule(opts.out(), sched);
  bench::check(opts.out(), e1 < e0 && e2 < e1 && e3 < e2,
               "each higher-RTT join steps the rate down");
  bench::check(opts.out(), back > 1.5 * e3, "rate recovers after the high-RTT leaves");
  const double tcp3 = tcp[3]->mean_kbps(w(210), w(250));
  bench::check(opts.out(), e3 > tcp3 / 3.0 && e3 < tcp3 * 3.0,
               "TFMCC tracks the 240 ms receiver's TCP-fair rate");
  return 0;
}
