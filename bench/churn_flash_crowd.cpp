// Flash-crowd churn workload (dynamic membership at scale).
//
// The paper evaluates TFMCC with static groups; this scenario stresses its
// §4.2 leave/join machinery the way a popular live event does: a dense
// crowd of receivers joins within seconds of session start, then the group
// keeps churning — random leave/rejoin toggles — for the rest of the run.
// At the default size (2000 receivers, 2000 crowd joins + 8000 churn
// toggles = 10k membership events) the per-event tree maintenance is the
// difference between this completing and not: a full rebuild per event is
// O(members x path), incremental graft/prune is O(path).  The scenario runs
// the incremental path; BM_MembershipChurn measures the gap to the full
// rebuild in isolation.

#include <string>
#include <vector>

#include "scenario_util.hpp"
#include "tfmcc/churn.hpp"

TFMCC_SCENARIO(
    churn_flash_crowd,
    "Flash-crowd joins plus sustained random churn on one TFMCC session",
    tfmcc::param("n_receivers", 2000, "receiver population", 2.0),
    tfmcc::param("churn_events", 8000,
                 "random leave/rejoin toggles after the crowd arrives", 0.0),
    tfmcc::param("bottleneck_mbps", 1.0, "bottleneck rate", 0.01)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Churn: flash crowd",
                       "Dense join wave plus sustained random churn");

  const int n_rx = opts.param_or("n_receivers", 2000);
  const int churn_events = opts.param_or("churn_events", 8000);
  const double bn_bps = opts.param_or("bottleneck_mbps", 1.0) * 1e6;
  TfmccConfig cfg;

  // Reference timeline: crowd arrives over [5, 15] s, random churn runs
  // over [20, 55] s, steady-state window is the last half.
  const SimTime kRefT = 60_sec;
  const SimTime T = opts.duration_or(kRefT);
  Simulator sim{opts.seed_or(800)};
  Topology topo{sim};

  const Dumbbell d = bench::jittered_dumbbell(
      topo, 1, n_rx, {.rate_bps = bn_bps, .delay = 20_ms});

  TfmccFlow tfmcc{sim, topo, d.left_hosts[0], cfg};
  std::vector<int> crowd_ids;
  for (int i = 0; i < n_rx; ++i) {
    const int id = tfmcc.add_receiver(d.right_hosts[static_cast<size_t>(i)]);
    if (i == 0) {
      tfmcc.receiver(id).join();  // anchor: present from t = 0
    } else {
      crowd_ids.push_back(id);
    }
  }
  tfmcc.sender().start(SimTime::zero());

  ScheduleBuilder sched{sim, kRefT, T};
  ChurnDriver churn{tfmcc, sim.make_rng(42'000)};
  churn.schedule_flash_crowd(sched, crowd_ids, 5_sec, 10_sec);
  churn.schedule_random_churn(sched, crowd_ids, churn_events, 20_sec, 55_sec);

  // Membership trajectory, sampled once per reference second.
  struct Sample {
    double t_s;
    int members;
    int attached;
    int events;
  };
  std::vector<Sample> trajectory;
  const GroupId gid = tfmcc.session().group();
  for (int s = 0; s <= 60; ++s) {
    sched.at(SimTime::seconds(static_cast<double>(s)), [&, s] {
      int attached = 0;
      for (NodeId n = 0; n < topo.node_count(); ++n) {
        if (topo.is_attached(gid, n)) ++attached;
      }
      trajectory.push_back({static_cast<double>(s),
                            topo.member_count(gid), attached,
                            churn.applied_events()});
    });
  }
  sim.run_until(T);

  CsvWriter csv(opts.out(), {"time_s", "members", "attached_nodes",
                             "churn_events_applied"});
  for (const auto& s : trajectory) {
    csv.row(s.t_s, s.members, s.attached, s.events);
  }

  // The driver's counters accumulate across both workloads; the crowd
  // window closes before the churn window opens, so every crowd join
  // applied and the difference is exactly the random toggles.
  const int crowd_joins = static_cast<int>(crowd_ids.size());
  const int toggles = churn.applied_events() - crowd_joins;
  const int total_events = 1 + churn.applied_events();
  bench::note(opts.out(),
              "membership events: 1 anchor join + " +
                  std::to_string(crowd_joins) + " crowd joins + " +
                  std::to_string(toggles) + " churn toggles (" +
                  std::to_string(churn.applied_joins() - crowd_joins) +
                  " rejoins, " + std::to_string(churn.applied_leaves()) +
                  " leaves) = " + std::to_string(total_events));
  bench::note_schedule(opts.out(), sched);

  const SimTime w0 = sched.warped(30_sec);
  const double anchor_kbps = tfmcc.goodput(0).mean_kbps(w0, T);
  bench::note(opts.out(), "anchor goodput (kbit/s, steady window): " +
                              std::to_string(anchor_kbps));
  bench::check(opts.out(), churn.applied_events() > 0,
               "random churn toggled membership");
  bench::check(opts.out(), anchor_kbps > 0.0,
               "the anchor receiver keeps receiving data through the churn");
  bench::check(opts.out(),
               topo.member_count(gid) >= 1 &&
                   topo.member_count(gid) <= n_rx,
               "final membership within [1, n_receivers]");
  return 0;
}
