// Ablation: fidelity of the hybrid full/model receiver tier.  Runs the
// fig12-class single-bottleneck session at sizes where the full simulation
// is still affordable, once with every receiver a full agent and once on
// the hybrid tier (same seed, same bottleneck), and compares the reported
// rate column — the sender's achieved throughput over the steady-state
// half of the run — plus the RTT-acquisition fraction.
//
// Declared fidelity bound: <= 5% divergence on the rate columns.  The rate
// is bottleneck-governed and the CLR dynamics are preserved by the modeled
// tier (shared loss process behind each tap, per-receiver RTTs, analytic
// candidate short-list), so the hybrid curve must track the full one.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "scenario_util.hpp"

namespace {

struct FidelityPoint {
  double kbps{0.0};    // sender throughput over the measurement window
  double acq{0.0};     // fraction of receivers with a measured RTT
  double fb_round{0.0};  // feedback messages per round
};

}  // namespace

TFMCC_SCENARIO(ablation_hybrid_fidelity,
               "Ablation: hybrid receiver tier vs full simulation",
               tfmcc::param("n_max", 1000,
                            "skip receiver counts above this", 1),
               tfmcc::param("full_receivers", 16,
                            "hybrid runs: receivers kept as full agents", 1),
               tfmcc::param("model_taps", 4,
                            "hybrid runs: modeled-receiver blocks", 1),
               tfmcc::param("bottleneck_bps", 500e3, "bottleneck rate", 1e3),
               tfmcc::param("fidelity_pct", 5.0,
                            "declared rate-divergence bound, percent", 0.1),
               tfmcc::bench::equation_backend_param()) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Ablation",
                       "Hybrid receiver-tier fidelity vs full simulation");

  const EquationBackend* eq = bench::selected_equation_backend(opts);
  if (eq == nullptr) return 2;
  TfmccConfig cfg;
  cfg.equation = eq;
  // 300 s horizon, measuring the final third: fig12 shows the full tier
  // needs ~200 s to finish RTT acquisition at n=1000, and until it does the
  // unacquired receivers' conservative initial-RTT rates depress the CLR.
  // The fidelity claim is about steady state, so measure past that transient.
  const SimTime horizon = opts.duration_or(300_sec);
  const SimTime meas_from = horizon - horizon / 3.0;
  const int n_max = opts.param_or("n_max", 1000);
  const double bn_bps = opts.param_or("bottleneck_bps", 500e3);
  const int n_full_agents = opts.param_or("full_receivers", 16);
  const int n_taps_req = opts.param_or("model_taps", 4);
  const double bound_pct = opts.param_or("fidelity_pct", 5.0);

  // One run of the fig12-class session; hybrid == false puts every receiver
  // in the full tier.  Same seed both ways: identical sender RNG stream and
  // bottleneck, so the comparison isolates the receiver-tier substitution.
  const auto run_once = [&](int n, bool hybrid) {
    Simulator sim{opts.seed_or(141)};
    Topology topo{sim};
    LinkConfig bn;
    bn.jitter = bench::kPhaseJitter;
    bn.rate_bps = bn_bps;
    bn.delay = 20_ms;
    bn.queue_limit_packets = 20;
    LinkConfig acc;
    acc.jitter = bench::kPhaseJitter;
    acc.rate_bps = 1e9;
    acc.delay = 2_ms;
    const NodeId src = topo.add_node();
    const NodeId left = topo.add_node();
    const NodeId right = topo.add_node();
    topo.add_duplex_link(src, left, acc);
    topo.add_duplex_link(left, right, bn);

    const int nf = hybrid ? std::min(n_full_agents, std::max(0, n - 2)) : n;
    const int nm = n - nf;
    Rng delay_rng{opts.seed_or(141) * 10 + 2};
    std::vector<NodeId> hosts(static_cast<size_t>(nf));
    for (int i = 0; i < nf; ++i) {
      hosts[static_cast<size_t>(i)] = topo.add_node();
      LinkConfig a = acc;
      a.delay = SimTime::millis(delay_rng.uniform_int(8, 48));
      topo.add_duplex_link(right, hosts[static_cast<size_t>(i)], a);
    }
    std::vector<NodeId> taps;
    if (nm > 0) {
      const int n_taps = std::clamp(n_taps_req, 1, nm);
      for (int t = 0; t < n_taps; ++t) {
        LinkConfig a = acc;
        a.delay = 8_ms;
        taps.push_back(topo.add_node());
        topo.add_duplex_link(right, taps.back(), a);
      }
    }
    topo.compute_routes();

    TfmccFlow flow{sim, topo, src, cfg};
    for (int i = 0; i < nf; ++i) {
      flow.add_joined_receiver(hosts[static_cast<size_t>(i)]);
    }
    for (std::size_t t = 0; t < taps.size(); ++t) {
      const int per = nm / static_cast<int>(taps.size());
      const int extra = t == 0 ? nm % static_cast<int>(taps.size()) : 0;
      const int b = flow.add_modeled_block(taps[t], per + extra,
                                           SimTime::zero(), 40_ms);
      flow.block(b).join();
    }
    flow.sender().start(SimTime::zero());

    sim.run_until(meas_from);
    const std::int64_t sent_start = flow.sender().data_sent();
    sim.run_until(horizon);
    const std::int64_t sent_end = flow.sender().data_sent();

    FidelityPoint pt;
    pt.kbps = kbps_from_Bps(static_cast<double>(sent_end - sent_start) *
                            static_cast<double>(kDataPacketBytes) /
                            (horizon - meas_from).to_seconds());
    pt.acq = static_cast<double>(flow.receivers_with_rtt()) /
             static_cast<double>(n);
    pt.fb_round =
        static_cast<double>(flow.sender().feedback_received()) /
        std::max(1.0, static_cast<double>(flow.sender().round()));
    return pt;
  };

  CsvWriter csv(opts.out(),
                {"n", "full_kbps", "hybrid_kbps", "rate_div_pct",
                 "full_rtt_frac", "hybrid_rtt_frac", "full_fb_round",
                 "hybrid_fb_round"});
  const std::vector<int> sizes{64, 250, 1000};
  double worst_div = 0.0;
  int measured = 0;
  for (int n : sizes) {
    if (n > n_max) continue;
    const FidelityPoint full = run_once(n, false);
    const FidelityPoint hyb = run_once(n, true);
    const double div_pct =
        full.kbps > 0.0
            ? 100.0 * std::abs(hyb.kbps - full.kbps) / full.kbps
            : 100.0;
    worst_div = std::max(worst_div, div_pct);
    ++measured;
    csv.row(n, full.kbps, hyb.kbps, div_pct, full.acq, hyb.acq,
            full.fb_round, hyb.fb_round);
  }

  bench::note(opts.out(), "worst rate divergence " +
                              std::to_string(worst_div) + "% over " +
                              std::to_string(measured) + " sizes (bound " +
                              std::to_string(bound_pct) + "%)");
  bench::check(opts.out(), measured > 0, "at least one overlapping size ran");
  bench::check(opts.out(), worst_div <= bound_pct,
               "hybrid tier reproduces the full-sim rate within the "
               "declared fidelity bound");
  return 0;
}
