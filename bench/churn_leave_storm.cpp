// Correlated leave-storm workload.
//
// Dynamic-membership churn is rarely uniform: a broadcast event ending, a
// network partition, or a program change makes a large correlated cohort
// leave within seconds — and often rejoin shortly after.  For TFMCC the
// interesting machinery is the CLR handoff (§3.2, §4.2): when the storm
// takes the current limiting receiver away the sender must time it out and
// promote a new CLR without stalling the survivors, and the rate should
// recover towards the smaller group's fair share until the rejoin wave
// restores the population.

#include <string>
#include <vector>

#include "scenario_util.hpp"
#include "tfmcc/churn.hpp"

TFMCC_SCENARIO(
    churn_leave_storm,
    "Steady state, correlated leave storm, then a rejoin wave",
    tfmcc::param("n_receivers", 200, "receiver population", 2.0),
    tfmcc::param("storm_fraction", 0.5,
                 "fraction of receivers leaving in the storm", 0.0),
    tfmcc::param("bottleneck_mbps", 2.0, "bottleneck rate", 0.01)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Churn: leave storm",
                       "Correlated leave storm and rejoin wave");

  const int n_rx = opts.param_or("n_receivers", 200);
  const double fraction = opts.param_or("storm_fraction", 0.5);
  const double bn_bps = opts.param_or("bottleneck_mbps", 2.0) * 1e6;
  TfmccConfig cfg;

  // Reference timeline: steady [0, 40), storm over [40, 45], depleted
  // [50, 80), rejoin wave [80, 85], recovered [90, 120).
  const SimTime kRefT = 120_sec;
  const SimTime T = opts.duration_or(kRefT);
  Simulator sim{opts.seed_or(801)};
  Topology topo{sim};

  LinkConfig bn;
  bn.rate_bps = bn_bps;
  bn.delay = 20_ms;
  bn.queue_limit_packets = 50;
  bn.jitter = bench::kPhaseJitter;
  LinkConfig acc;
  acc.rate_bps = 1e9;
  acc.delay = 2_ms;
  acc.jitter = bench::kPhaseJitter;
  Dumbbell d = make_dumbbell(topo, 1, n_rx, bn, acc);

  TfmccFlow tfmcc{sim, topo, d.left_hosts[0], cfg};
  std::vector<int> ids;
  for (int i = 0; i < n_rx; ++i) {
    ids.push_back(
        tfmcc.add_joined_receiver(d.right_hosts[static_cast<size_t>(i)]));
  }
  tfmcc.sender().start(SimTime::zero());

  ScheduleBuilder sched{sim, kRefT, T};
  ChurnDriver churn{tfmcc, sim.make_rng(43'000)};
  // The anchor (receiver 0) never leaves, so its goodput trace spans the
  // whole run.
  const std::vector<int> storm_pool(ids.begin() + 1, ids.end());
  const std::vector<int> leavers =
      churn.schedule_leave_storm(sched, storm_pool, fraction, 40_sec, 5_sec);
  churn.schedule_flash_crowd(sched, leavers, 80_sec, 5_sec);  // rejoin wave

  const GroupId gid = tfmcc.session().group();
  struct Sample {
    double t_s;
    int members;
  };
  std::vector<Sample> trajectory;
  for (int s = 0; s <= 120; s += 2) {
    sched.at(SimTime::seconds(static_cast<double>(s)), [&, s] {
      trajectory.push_back({static_cast<double>(s), topo.member_count(gid)});
    });
  }
  sim.run_until(T);

  CsvWriter csv(opts.out(), {"series", "time_s", "value"});
  for (const auto& s : trajectory) csv.row("members", s.t_s, s.members);
  bench::emit_series(csv, "anchor_kbps", tfmcc.goodput(0), 0_sec, T);

  const auto w = [&sched](double s) {
    return sched.warped(SimTime::seconds(s));
  };
  const double steady = tfmcc.goodput(0).mean_kbps(w(20), w(40));
  const double depleted = tfmcc.goodput(0).mean_kbps(w(55), w(80));
  const double recovered = tfmcc.goodput(0).mean_kbps(w(95), w(120));
  bench::note(opts.out(), "storm: " + std::to_string(leavers.size()) +
                              " receivers left, " +
                              std::to_string(churn.applied_joins()) +
                              " rejoined");
  bench::note(opts.out(),
              "anchor goodput (kbit/s): steady=" + std::to_string(steady) +
                  " depleted=" + std::to_string(depleted) +
                  " recovered=" + std::to_string(recovered));
  bench::note(opts.out(), "CLR changes over the run: " +
                              std::to_string(tfmcc.sender().clr_history().size()));
  bench::note_schedule(opts.out(), sched);
  bench::check(opts.out(),
               static_cast<double>(leavers.size()) >=
                   fraction * static_cast<double>(n_rx - 1) - 1.0,
               "the storm removed the requested fraction of receivers");
  bench::check(opts.out(), churn.applied_joins() == static_cast<int>(leavers.size()),
               "every storm leaver rejoined in the rejoin wave");
  bench::check(opts.out(), steady > 0.0 && depleted > 0.0 && recovered > 0.0,
               "the anchor kept receiving through storm and rejoin");
  return 0;
}
