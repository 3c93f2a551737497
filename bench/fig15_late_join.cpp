// Figure 15: late join of a low-rate receiver.  An 8-member TFMCC session
// and 7 TCP flows share an 8 Mbit/s bottleneck (fair rate 1 Mbit/s).  At
// t = 50 s a new receiver behind a separate 200 kbit/s tail joins; it
// leaves at t = 100 s.
//
// Paper claims: the joining receiver initially sees very high loss, but
// the loss-history initialisation (Appendix B) lets TFMCC select it as CLR
// and settle to the 200 kbit/s tail within a very few seconds; after the
// leave the rate recovers towards fair.

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig15_late_join,
               "Figure 15: late join of a low-rate receiver",
               tfmcc::param("n_receivers", 8, "TFMCC receivers at the bottleneck", 1),
               tfmcc::param("n_tcp", 7, "competing TCP flows", 0),
               tfmcc::param("bottleneck_bps", 8e6, "shared bottleneck rate",
                            1e3),
               tfmcc::param("slow_bps", 200e3, "late joiner's tail rate", 1e3)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 15", "Late join of a low-rate receiver");

  TfmccConfig cfg;
  // Join at 50 s / leave at 100 s on the paper's 140 s timeline; the script
  // warps proportionally onto the requested horizon.
  const SimTime kRefT = 140_sec;
  const SimTime T = opts.duration_or(kRefT);
  bench::SharedBottleneck s{opts.param_or("bottleneck_bps", 8e6), 18_ms,
                            opts.param_or("n_receivers", 8),
                            opts.param_or("n_tcp", 7), opts.seed_or(151),
                            50, cfg};
  // Slow tail hanging off the right router.
  LinkConfig slow;
  slow.rate_bps = opts.param_or("slow_bps", 200e3);
  slow.delay = 10_ms;
  slow.queue_limit_packets = 10;
  const NodeId slow_host = s.topo.add_node();
  s.topo.add_duplex_link(s.dumbbell.right_router, slow_host, slow);
  s.topo.compute_routes();
  const int late = s.tfmcc->add_receiver(slow_host);

  s.start_all();
  ScheduleBuilder sched{s.sim, kRefT, T};
  sched.at(50_sec, [&] { s.tfmcc->receiver(late).join(); });
  sched.at(100_sec, [&] { s.tfmcc->receiver(late).leave(); });
  s.sim.run_until(T);

  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  bench::emit_series(csv, "TFMCC", s.tfmcc->goodput(0), 0_sec, T);
  // Aggregate TCP trace.
  ThroughputBinner agg{1_sec};
  for (const auto& t : s.tcp) {
    for (const auto& p : t->goodput.series_kbps().points()) {
      agg.add(p.t, static_cast<std::int64_t>(p.v * 125.0));  // kbit -> bytes/s bin
    }
  }
  bench::emit_series(csv, "aggregated TCP", agg, 0_sec, T);

  const auto w = [&sched](double sec) { return sched.warped(SimTime::seconds(sec)); };
  const double before = s.tfmcc->goodput(0).mean_kbps(w(30), w(50));
  const double during = s.tfmcc->goodput(0).mean_kbps(w(60), w(100));
  const double after = s.tfmcc->goodput(0).mean_kbps(w(120), w(140));

  bench::note(opts.out(), "TFMCC kbit/s before=" + std::to_string(before) + " during=" +
              std::to_string(during) + " after=" + std::to_string(after));
  bench::note_schedule(opts.out(), sched);
  bench::check(opts.out(), before > 400.0, "before the join TFMCC runs near fair rate");
  bench::check(opts.out(), during < 320.0 && during > 50.0,
               "during the join TFMCC settles near the 200 kbit/s tail, "
               "not zero");
  bench::check(opts.out(), after > 2.0 * during, "rate recovers after the leave");
  return 0;
}
