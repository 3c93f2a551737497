// Figure 16: the fig. 15 scenario with an additional TCP flow on the
// 200 kbit/s link for the whole experiment.
//
// Paper claims: when the receiver joins, the slow link is flooded and the
// TCP flow inevitably times out, but shortly afterwards TFMCC adapts and
// the 200 kbit/s link is shared fairly between TFMCC and TCP.

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig16_late_join_tcp,
               "Figure 16: late join with a competing TCP on the slow link",
               tfmcc::param("n_receivers", 8, "TFMCC receivers at the bottleneck", 1),
               tfmcc::param("n_tcp", 7, "competing TCP flows", 1),
               tfmcc::param("bottleneck_bps", 8e6, "shared bottleneck rate",
                            1e3),
               tfmcc::param("slow_bps", 200e3, "late joiner's tail rate", 1e3)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 16", "Additional TCP flow on the slow link");

  TfmccConfig cfg;
  const SimTime kRefT = 140_sec;
  const SimTime T = opts.duration_or(kRefT);
  bench::SharedBottleneck s{opts.param_or("bottleneck_bps", 8e6), 18_ms,
                            opts.param_or("n_receivers", 8),
                            opts.param_or("n_tcp", 7), opts.seed_or(161),
                            50, cfg};
  LinkConfig slow;
  slow.rate_bps = opts.param_or("slow_bps", 200e3);
  slow.delay = 10_ms;
  slow.queue_limit_packets = 10;
  const NodeId slow_host = s.topo.add_node();
  s.topo.add_duplex_link(s.dumbbell.right_router, slow_host, slow);
  s.topo.compute_routes();
  const int late = s.tfmcc->add_receiver(slow_host);
  // The competing TCP flow on the slow link, running the whole time,
  // sourced from the left side of the dumbbell.
  TcpFlow slow_tcp{s.sim, s.topo, s.dumbbell.left_hosts[1], slow_host, 99};

  s.start_all();
  slow_tcp.start(1_sec);
  ScheduleBuilder sched{s.sim, kRefT, T};
  sched.at(50_sec, [&] { s.tfmcc->receiver(late).join(); });
  sched.at(100_sec, [&] { s.tfmcc->receiver(late).leave(); });
  s.sim.run_until(T);

  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  bench::emit_series(csv, "TFMCC", s.tfmcc->goodput(0), 0_sec, T);
  bench::emit_series(csv, "TCP on 200kbit link", slow_tcp.goodput, 0_sec, T);

  const auto w = [&sched](double sec) { return sched.warped(SimTime::seconds(sec)); };
  const double tcp_before = slow_tcp.mean_kbps(w(20), w(50));
  const double tcp_during = slow_tcp.mean_kbps(w(65), w(100));
  const double tfmcc_during = s.tfmcc->goodput(0).mean_kbps(w(65), w(100));
  const double tcp_after = slow_tcp.mean_kbps(w(110), w(140));

  bench::note(opts.out(), "slow TCP kbit/s before=" + std::to_string(tcp_before) +
              " during=" + std::to_string(tcp_during) + " after=" +
              std::to_string(tcp_after) + "; TFMCC during=" +
              std::to_string(tfmcc_during));
  bench::note_schedule(opts.out(), sched);
  bench::check(opts.out(), tcp_before > 120.0,
               "TCP alone uses most of the 200 kbit/s link before the join");
  bench::check(opts.out(), tcp_during > 30.0,
               "TCP recovers from the join-flood timeout and keeps a share");
  bench::check(opts.out(), tfmcc_during > 40.0 && tfmcc_during < 250.0,
               "TFMCC shares the slow link instead of starving or flooding");
  bench::check(opts.out(), tcp_after > tcp_during,
               "TCP reclaims bandwidth after the receiver leaves");
  return 0;
}
