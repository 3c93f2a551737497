// Ablation: loss-history depth (§2.3, §3).  The paper argues depths of
// 8-32 balance smoothness against responsiveness, and that deeper
// histories mitigate the loss-path-multiplicity degradation at the cost
// of slower reaction.  This bench quantifies both sides:
//   (a) scaling: expected min-rate at n receivers for depth 2/8/32;
//   (b) responsiveness: how long a single receiver takes to adapt after
//       its loss rate quadruples, for depth 8 vs 32.

#include <iostream>

#include "analysis/scaling.hpp"
#include "bench_util.hpp"
#include "scenario_util.hpp"

namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

/// Time for the sender rate to fall below half its previous steady value
/// after the receiver's path loss jumps from 0.5% to 8%.  The settle /
/// adaptation windows live at 120 s each on the reference 240 s timeline
/// and warp proportionally with --duration.
double adapt_seconds(int depth, const TimeWarp& warp, std::uint64_t seed) {
  Simulator sim{seed};
  Topology topo{sim};
  LinkConfig trunk;
  trunk.rate_bps = 1e9;
  trunk.delay = 5_ms;
  LinkConfig leaf;
  leaf.rate_bps = 1e9;
  leaf.delay = 15_ms;
  leaf.loss_rate = 0.005;
  Star star = make_star(topo, trunk, {leaf});
  TfmccConfig cfg;
  cfg.loss_history_depth = depth;
  TfmccFlow flow{sim, topo, star.sender, cfg};
  flow.add_joined_receiver(star.leaves[0]);
  flow.sender().start(SimTime::zero());
  sim.run_until(warp(120_sec));
  const double before = flow.sender().rate_Bps();
  star.leaf_links[0].first->set_loss_rate(0.08);
  const SimTime t0 = sim.now();
  const SimTime window = warp(240_sec) - warp(120_sec);
  while (sim.now() < t0 + window) {
    sim.run_until(sim.now() + 500_ms);
    if (flow.sender().rate_Bps() < before / 2.0) break;
  }
  return (sim.now() - t0).to_seconds();
}

}  // namespace

TFMCC_SCENARIO(ablation_loss_history,
               "Ablation: loss-history depth, smoothness vs responsiveness",
               tfmcc::param("trials", 150, "Monte-Carlo trials, scaling side", 1),
               tfmcc::param("n_receivers", 1000,
                            "receiver count, scaling side", 1)) {
  using tfmcc::bench::check;
  using tfmcc::bench::figure_header;
  using tfmcc::bench::note;
  namespace sc = tfmcc::scaling;

  figure_header(opts.out(), "Ablation", "Loss-history depth: smoothness vs responsiveness");

  const std::uint64_t seed = opts.seed_or(301);
  const int n_receivers = opts.param_or("n_receivers", 1000);
  const tfmcc::TimeWarp warp{tfmcc::SimTime::seconds(240),
                             opts.duration_or(tfmcc::SimTime::seconds(240))};
  // (a) Scaling side.
  sc::ModelConfig mc;
  mc.trials = opts.param_or("trials", 150);
  tfmcc::Rng rng{seed + 30};
  tfmcc::CsvWriter csv(opts.out(), {"metric", "depth", "value"});
  double rate_d2 = 0, rate_d32 = 0;
  for (int depth : {2, 8, 32}) {
    mc.history_depth = depth;
    const double kbps = tfmcc::kbps_from_Bps(sc::expected_min_rate_Bps(
        sc::constant_losses(n_receivers, 0.1), mc, rng));
    csv.row("min_rate_n1000_kbps", depth, kbps);
    if (depth == 2) rate_d2 = kbps;
    if (depth == 32) rate_d32 = kbps;
  }

  // (b) Responsiveness side.
  const double t8 = adapt_seconds(8, warp, seed);
  const double t32 = adapt_seconds(32, warp, seed);
  csv.row("adapt_to_4x_loss_seconds", 8, t8);
  csv.row("adapt_to_4x_loss_seconds", 32, t32);

  check(opts.out(), rate_d32 > rate_d2,
        "deeper history mitigates the multi-receiver degradation");
  check(opts.out(), t8 <= t32 + 1.0,
        "shallower history reacts at least as fast to new congestion");
  note(opts.out(), "depth 8 adapts in " + std::to_string(t8) + "s, depth 32 in " +
       std::to_string(t32) + "s");
  return 0;
}
