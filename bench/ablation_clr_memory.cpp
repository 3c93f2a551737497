// Ablation: previous-CLR memory (Appendix C).  Storing the previous CLR
// lets the sender switch back immediately when a transient CLR change
// reverses, which is strictly more conservative.  Scenario: a clean
// receiver plus a receiver whose path suffers a short congestion burst;
// with the option on, the rate during the minute after the burst must not
// exceed the rate without it.

#include <iostream>

#include "bench_util.hpp"
#include "scenario_util.hpp"

namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

struct Outcome {
  double mean_after_kbps;
  int clr_switches;
};

// The burst script lives at 90..95 s on the reference 180 s timeline and
// warps proportionally with --duration.
Outcome run(bool remember, double clr_loss, double burst_loss,
            const TimeWarp& warp, std::uint64_t seed) {
  Simulator sim{seed};
  Topology topo{sim};
  LinkConfig trunk;
  trunk.rate_bps = 1e9;
  trunk.delay = 5_ms;
  LinkConfig steady;
  steady.rate_bps = 1e9;
  steady.delay = 15_ms;
  steady.loss_rate = clr_loss;  // the long-term CLR
  LinkConfig bursty;
  bursty.rate_bps = 1e9;
  bursty.delay = 15_ms;
  bursty.loss_rate = 0.002;
  Star star = make_star(topo, trunk, {steady, bursty});
  TfmccConfig cfg;
  cfg.remember_previous_clr = remember;
  TfmccFlow flow{sim, topo, star.sender, cfg};
  flow.add_joined_receiver(star.leaves[0]);
  flow.add_joined_receiver(star.leaves[1]);
  flow.sender().start(SimTime::zero());
  sim.run_until(warp(90_sec));
  // Transient burst on the normally-clean path: it briefly becomes CLR.
  star.leaf_links[1].first->set_loss_rate(burst_loss);
  sim.run_until(warp(95_sec));
  star.leaf_links[1].first->set_loss_rate(0.002);
  sim.run_until(warp(180_sec));
  Outcome o;
  o.mean_after_kbps = flow.goodput(0).mean_kbps(warp(95_sec), warp(180_sec));
  o.clr_switches = static_cast<int>(flow.sender().clr_history().size());
  return o;
}

}  // namespace

TFMCC_SCENARIO(ablation_clr_memory,
               "Ablation: Appendix C previous-CLR memory",
               tfmcc::param("clr_loss", 0.01,
                            "loss rate of the long-term CLR's path", 0.0),
               tfmcc::param("burst_loss", 0.08,
                            "loss rate during the transient burst", 0.0)) {
  using tfmcc::bench::check;
  using tfmcc::bench::figure_header;
  using tfmcc::bench::note;

  figure_header(opts.out(), "Ablation", "Appendix C: storing the previous CLR");

  const std::uint64_t seed = opts.seed_or(311);
  const double clr_loss = opts.param_or("clr_loss", 0.01);
  const double burst_loss = opts.param_or("burst_loss", 0.08);
  const tfmcc::TimeWarp warp{tfmcc::SimTime::seconds(180),
                             opts.duration_or(tfmcc::SimTime::seconds(180))};
  const Outcome without = run(false, clr_loss, burst_loss, warp, seed);
  const Outcome with = run(true, clr_loss, burst_loss, warp, seed);

  tfmcc::CsvWriter csv(opts.out(),
                       {"variant", "mean_after_burst_kbps", "clr_switches"});
  csv.row("no_memory", without.mean_after_kbps, without.clr_switches);
  csv.row("with_memory", with.mean_after_kbps, with.clr_switches);

  check(opts.out(), with.mean_after_kbps < without.mean_after_kbps * 1.3,
        "previous-CLR memory is not less conservative after a transient");
  note(opts.out(), "without memory: " + std::to_string(without.mean_after_kbps) +
       " kbit/s, " + std::to_string(without.clr_switches) +
       " switches; with: " + std::to_string(with.mean_after_kbps) +
       " kbit/s, " + std::to_string(with.clr_switches) + " switches");
  return 0;
}
