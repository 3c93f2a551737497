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
                            "declared rate-divergence bound, percent", 0.1)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Ablation",
                       "Hybrid receiver-tier fidelity vs full simulation");

  TfmccConfig cfg;
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
    bench::Fig12Session s{opts.seed_or(141), n, n_full_agents,
                          hybrid ? n_taps_req : 0, bn_bps, cfg};
    Simulator& sim = s.sim;
    TfmccFlow& flow = *s.flow;

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
