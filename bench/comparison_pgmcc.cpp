// §5 comparison: TFMCC vs PGMCC on the same bottleneck.
//
// Paper claims: both are viable single-rate multicast congestion control
// schemes and achieve comparable medium-term throughput, but PGMCC's
// TCP-style window "produces rate variations that resemble TCP's
// sawtooth-like rate", whereas "the rate produced by TFMCC is generally
// smoother and more predictable".

#include <iostream>
#include <memory>

#include "pgmcc/pgmcc.hpp"
#include "scenario_util.hpp"

namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

struct Run {
  double mean_kbps;
  double cov;
};

/// One sender and `n_receivers` receivers across a 20 ms, 25-packet
/// bottleneck with the phase jitter, behind unjittered access links.
Dumbbell comparison_dumbbell(Topology& topo, int n_receivers,
                             double bottleneck_bps) {
  return make_dumbbell(topo, 1, n_receivers,
                       {.rate_bps = bottleneck_bps,
                        .delay = 20_ms,
                        .queue_limit_packets = 25,
                        .jitter = bench::kPhaseJitter},
                       {.rate_bps = 1e9, .delay = 2_ms});
}

Run run_tfmcc(int n_receivers, double bottleneck_bps, std::uint64_t seed,
              SimTime horizon, const TfmccConfig& cfg) {
  Simulator sim{seed};
  Topology topo{sim};
  const Dumbbell d = comparison_dumbbell(topo, n_receivers, bottleneck_bps);
  TfmccFlow flow{sim, topo, d.left_hosts[0], cfg};
  for (int i = 0; i < n_receivers; ++i) flow.add_joined_receiver(d.right_hosts[static_cast<size_t>(i)]);
  flow.sender().start(SimTime::zero());
  sim.run_until(horizon);
  const SimTime warm = bench::warmup(60_sec, horizon);
  return {flow.goodput(0).mean_kbps(warm, horizon),
          bench::trace_cov(flow.goodput(0), warm, horizon)};
}

Run run_pgmcc(int n_receivers, double bottleneck_bps, std::uint64_t seed,
              SimTime horizon) {
  Simulator sim{seed};
  Topology topo{sim};
  const Dumbbell d = comparison_dumbbell(topo, n_receivers, bottleneck_bps);
  MulticastSession session{topo, d.left_hosts[0], 12};
  PgmccSender sender{sim, session};
  std::vector<std::unique_ptr<PgmccReceiver>> receivers;
  for (int i = 0; i < n_receivers; ++i) {
    receivers.push_back(std::make_unique<PgmccReceiver>(
        sim, session, d.right_hosts[static_cast<size_t>(i)], i,
        sim.make_rng(901 + static_cast<std::uint64_t>(i))));
    receivers.back()->join();
  }
  sender.start(SimTime::zero());
  sim.run_until(horizon);
  const SimTime warm = bench::warmup(60_sec, horizon);
  const ThroughputBinner& goodput = receivers[0]->goodput();
  return {goodput.mean_kbps(warm, horizon),
          bench::trace_cov(goodput, warm, horizon)};
}

}  // namespace

TFMCC_SCENARIO(comparison_pgmcc,
               "Section 5 comparison: TFMCC vs PGMCC on one bottleneck",
               tfmcc::param("n_receivers", 4, "receiver count per protocol", 1),
               tfmcc::param("bottleneck_bps", 2e6, "bottleneck rate", 1e3)) {
  using tfmcc::bench::check;
  using tfmcc::bench::figure_header;
  using tfmcc::bench::note;

  figure_header(opts.out(), "Comparison (§5)", "TFMCC vs PGMCC on a 2 Mbit/s bottleneck");

  tfmcc::TfmccConfig cfg;
  const tfmcc::SimTime horizon = opts.duration_or(300_sec);
  const std::uint64_t seed = opts.seed_or(501);
  const int n_receivers = opts.param_or("n_receivers", 4);
  const double bottleneck_bps = opts.param_or("bottleneck_bps", 2e6);
  const Run tfmcc_run =
      run_tfmcc(n_receivers, bottleneck_bps, seed, horizon, cfg);
  const Run pgmcc_run = run_pgmcc(n_receivers, bottleneck_bps, seed, horizon);

  tfmcc::CsvWriter csv(opts.out(), {"protocol", "mean_kbps", "cov"});
  csv.row("TFMCC", tfmcc_run.mean_kbps, tfmcc_run.cov);
  csv.row("PGMCC", pgmcc_run.mean_kbps, pgmcc_run.cov);

  check(opts.out(), tfmcc_run.mean_kbps > 0.3 * pgmcc_run.mean_kbps &&
            tfmcc_run.mean_kbps < 3.0 * pgmcc_run.mean_kbps,
        "both schemes achieve comparable medium-term throughput");
  check(opts.out(), tfmcc_run.cov < pgmcc_run.cov,
        "TFMCC's equation-based rate is smoother than PGMCC's window "
        "sawtooth");
  note(opts.out(), "TFMCC " + std::to_string(tfmcc_run.mean_kbps) + " kbit/s CoV " +
       std::to_string(tfmcc_run.cov) + "; PGMCC " +
       std::to_string(pgmcc_run.mean_kbps) + " kbit/s CoV " +
       std::to_string(pgmcc_run.cov));
  return 0;
}
