// Figure 13: responsiveness to changes in the RTT.  n receivers with
// independent equal loss; at time t one receiver's path delay increases
// 10x, making it the correct CLR.  The plot shows the delay until the
// sender actually selects it, as a function of when the change happens —
// the later the change, the more receivers already have valid RTT
// estimates, the faster the reaction.
//
// Receiver-set sizes: 40 and 200 with the full change-time sweep; 1000
// with a reduced sweep (runtime).  The change-time script lives on a
// reference timeline of 230 s (last change at 80 s + 150 s reaction
// window) and warps proportionally with --duration.

#include <iostream>

#include "scenario_util.hpp"

namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

double measure_reaction(int n_receivers, SimTime change_at, SimTime deadline_w,
                        double loss_rate, std::uint64_t seed,
                        const TfmccConfig& cfg) {
  Simulator sim{seed};
  Topology topo{sim};
  LinkConfig trunk;
  trunk.jitter = bench::kPhaseJitter;
  trunk.rate_bps = 1e9;
  trunk.delay = 5_ms;
  std::vector<LinkConfig> leaves(static_cast<size_t>(n_receivers));
  for (auto& l : leaves) {
    l.rate_bps = 1e9;
    l.delay = 15_ms;          // base RTT 40 ms
    l.loss_rate = loss_rate;  // independent loss, same probability everywhere
  }
  Star star = make_star(topo, trunk, leaves);
  TfmccFlow flow{sim, topo, star.sender, cfg};
  for (int i = 0; i < n_receivers; ++i) {
    flow.add_joined_receiver(star.leaves[static_cast<size_t>(i)]);
  }
  flow.sender().start(SimTime::zero());

  const int target = 1;  // receiver whose RTT will jump
  sim.run_until(change_at);
  star.leaf_links[static_cast<size_t>(target)].first->set_delay(150_ms);
  star.leaf_links[static_cast<size_t>(target)].second->set_delay(150_ms);

  // Run until the sender selects the target as CLR (poll at 100 ms).
  const SimTime deadline = change_at + deadline_w;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + 100_ms);
    if (flow.sender().clr() == target) {
      return (sim.now() - change_at).to_seconds();
    }
  }
  return -1.0;  // not reacted within the window
}

}  // namespace

TFMCC_SCENARIO(fig13_rtt_change,
               "Figure 13: responsiveness to changes in the RTT",
               tfmcc::param("loss_rate", 0.02, "independent leaf loss rate", 0.0),
               tfmcc::param("n_max", 1000,
                            "skip receiver-set sizes above this", 1)) {
  using tfmcc::bench::check;
  using tfmcc::bench::figure_header;
  using tfmcc::bench::note;

  figure_header(opts.out(), "Figure 13", "Responsiveness to changes in the RTT");

  tfmcc::TfmccConfig cfg;
  const std::uint64_t seed = opts.seed_or(131);
  const double loss_rate = opts.param_or("loss_rate", 0.02);
  const int n_max = opts.param_or("n_max", 1000);
  const tfmcc::TimeWarp warp{230_sec, opts.duration_or(230_sec)};
  const tfmcc::SimTime deadline_w = warp(150_sec);
  tfmcc::CsvWriter csv(opts.out(), {"n", "time_of_change_s", "reaction_delay_s"});
  double d40_early = -1, d40_late = -1, d200_early = -1, d1000 = -1;
  for (const double t : {0.0, 10.0, 20.0, 40.0, 80.0}) {
    const tfmcc::SimTime at = warp(tfmcc::SimTime::seconds(t));
    if (n_max >= 40) {
      const double d40 =
          measure_reaction(40, at, deadline_w, loss_rate, seed, cfg);
      csv.row(40, at.to_seconds(), d40);
      if (t == 0.0) d40_early = d40;
      if (t == 80.0) d40_late = d40;
    }
    if (n_max >= 200) {
      const double d200 =
          measure_reaction(200, at, deadline_w, loss_rate, seed + 1, cfg);
      csv.row(200, at.to_seconds(), d200);
      if (t == 0.0) d200_early = d200;
    }
  }
  if (n_max >= 1000) {
    d1000 = measure_reaction(1000, warp(40_sec), deadline_w, loss_rate,
                             seed + 2, cfg);
    csv.row(1000, warp(40_sec).to_seconds(), d1000);
  }

  if (n_max >= 1000) {
    check(opts.out(), d40_early > 0 && d200_early > 0 && d1000 > 0,
          "the high-RTT receiver is found in every configuration");
  } else if (n_max >= 40) {
    check(opts.out(), d40_early > 0, "the high-RTT receiver is found");
  }
  if (n_max >= 40) {
    check(opts.out(), d40_late <= d40_early,
          "later changes (more valid RTTs) are reacted to at least as fast");
  }
  // -1 means "not reacted within the window"; skipped set sizes are
  // reported as such instead of printing the sentinel as a measurement.
  std::string summary =
      n_max >= 40 ? "n=40: " + std::to_string(d40_early) + "s at t=0 vs " +
                        std::to_string(d40_late) + "s at t=80"
                  : "n=40: skipped (n_max)";
  summary += n_max >= 200
                 ? "; n=200 t=0: " + std::to_string(d200_early) + "s"
                 : "; n=200: skipped (n_max)";
  summary += n_max >= 1000
                 ? "; n=1000 t=40: " + std::to_string(d1000) + "s"
                 : "; n=1000: skipped (n_max)";
  note(opts.out(), summary);
  return 0;
}
