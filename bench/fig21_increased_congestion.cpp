// Figure 21 (Appendix D.2): responsiveness to increased congestion.  A
// TFMCC flow runs over a 16 Mbit/s, 60 ms-RTT link; at 50 s intervals 1,
// then 2, then 4, then 8 additional TCP flows start, doubling the total
// flow count each time.
//
// Paper claims: TFMCC (like TCP) settles at roughly half its previous
// bandwidth after each doubling, reacting on a longer timescale than TCP,
// with overall fairness acceptable (TFMCC slightly aggressive).

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig21_increased_congestion,
               "Figure 21: TCP flow count doubling every 50 s",
               tfmcc::param("n_receivers", 2, "TFMCC receiver count", 1),
               tfmcc::param("bottleneck_bps", 16e6, "shared bottleneck rate",
                            1e3),
               tfmcc::param("queue_pkts", 80, "bottleneck queue limit", 1)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 21", "Responsiveness to increased congestion");

  TfmccConfig cfg;
  // The flow-count doublings are scripted at 50 s epochs on the paper's
  // 250 s timeline and warp proportionally with --duration.
  const SimTime kRefT = 250_sec;
  const SimTime T = opts.duration_or(kRefT);
  const TimeWarp warp{kRefT, T};
  bench::SharedBottleneck s{opts.param_or("bottleneck_bps", 16e6), 28_ms,
                            opts.param_or("n_receivers", 2), /*n_tcp=*/15,
                            opts.seed_or(211),
                            static_cast<std::size_t>(
                                opts.param_or("queue_pkts", 80)),
                            cfg};
  s.tfmcc->sender().start(SimTime::zero());
  // Start groups of 1, 2, 4 and 8 TCP flows at 50, 100, 150 and 200 s; the
  // millisecond stagger within a group is deliberate jitter, not script
  // structure, so it stays unwarped.
  int idx = 0;
  const int kGroups[4] = {1, 2, 4, 8};
  for (int g = 0; g < 4; ++g) {
    for (int k = 0; k < kGroups[g]; ++k) {
      s.tcp[static_cast<size_t>(idx)]->start(
          warp(SimTime::seconds(50.0 * (g + 1))) + SimTime::millis(17 * idx));
      ++idx;
    }
  }
  s.sim.run_until(T);

  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  bench::emit_series(csv, "TFMCC", s.tfmcc->goodput(0), 0_sec, T);
  // Aggregate each start-group of TCP flows into one trace, as the paper
  // does for readability.
  idx = 0;
  for (int g = 0; g < 4; ++g) {
    ThroughputBinner agg{1_sec};
    for (int k = 0; k < kGroups[g]; ++k, ++idx) {
      for (const auto& p : s.tcp[static_cast<size_t>(idx)]->goodput.series_kbps().points()) {
        agg.add(p.t, static_cast<std::int64_t>(p.v * 125.0));
      }
    }
    bench::emit_series(csv, "TCP group " + std::to_string(g + 1), agg, 0_sec,
                       T);
  }

  // Epoch means for TFMCC, measured in the second half of each epoch so the
  // longer reaction timescale has settled.
  double epochs[5];
  for (int e = 0; e < 5; ++e) {
    epochs[e] = s.tfmcc->goodput(0).mean_kbps(
        warp(SimTime::seconds(50.0 * e + 25.0)),
        warp(SimTime::seconds(50.0 * (e + 1))));
  }
  bench::note(opts.out(), "TFMCC epoch means (kbit/s): " + std::to_string(epochs[0]) +
              " / " + std::to_string(epochs[1]) + " / " +
              std::to_string(epochs[2]) + " / " + std::to_string(epochs[3]) +
              " / " + std::to_string(epochs[4]));
  int halvings = 0;
  for (int e = 1; e < 5; ++e) {
    if (epochs[e] < 0.75 * epochs[e - 1]) ++halvings;
  }
  bench::check(opts.out(), halvings >= 3,
               "each flow-count doubling roughly halves TFMCC's bandwidth");
  const double tcp_avg = s.tcp_mean_kbps(warp(225_sec), warp(250_sec));
  const double final_ratio = epochs[4] / tcp_avg;
  bench::check(opts.out(), final_ratio > 0.3 && final_ratio < 4.0,
               "overall fairness acceptable at 16 flows (paper: TFMCC "
               "slightly aggressive)");
  return 0;
}
