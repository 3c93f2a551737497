// Figure 14: maximum slowstart rate vs receiver-set size, for (a) TFMCC
// alone on the link, (b) one competing TCP, (c) high statistical
// multiplexing (8 competing TCPs).  The fair rate is 1 Mbit/s in all
// three scenarios.
//
// Paper claims: alone, TFMCC overshoots to roughly twice the bottleneck
// bandwidth regardless of n; with competition the slowstart exit rate is
// below the fair rate, and it decreases as the receiver set grows (the
// min() over noisy receive-rate reports).

#include <iostream>

#include "scenario_util.hpp"

namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

double peak_slowstart_kbps(double bottleneck_bps, int n_receivers, int n_tcp,
                           std::uint64_t seed, SimTime horizon,
                           const TfmccConfig& cfg) {
  bench::SharedBottleneck s{bottleneck_bps, 18_ms, n_receivers, n_tcp, seed,
                            50, cfg};
  // TCP flows first so the link is in steady state when TFMCC probes.
  for (std::size_t i = 0; i < s.tcp.size(); ++i) {
    s.tcp[i]->start(SimTime::millis(41 * static_cast<std::int64_t>(i)));
  }
  s.tfmcc->sender().start(n_tcp > 0 ? 15_sec : SimTime::zero());
  s.sim.run_until(horizon);
  return kbps_from_Bps(s.tfmcc->sender().peak_slowstart_rate_Bps());
}

}  // namespace

TFMCC_SCENARIO(fig14_slowstart,
               "Figure 14: maximum slowstart rate vs receiver-set size",
               tfmcc::param("base_bps", 1e6, "fair rate in every variant", 1e3),
               tfmcc::param("n_max", 512,
                            "skip receiver-set sizes above this", 1)) {
  using tfmcc::bench::check;
  using tfmcc::bench::figure_header;
  using tfmcc::bench::note;

  figure_header(opts.out(), "Figure 14", "Maximum slowstart rate");

  tfmcc::TfmccConfig cfg;
  const tfmcc::SimTime horizon = opts.duration_or(60_sec);
  const std::uint64_t seed = opts.seed_or(141);
  const double base_bps = opts.param_or("base_bps", 1e6);
  const int n_max = opts.param_or("n_max", 512);
  tfmcc::CsvWriter csv(opts.out(),
                       {"n_receivers", "only_tfmcc_kbps", "one_tcp_kbps",
                        "high_statmux_kbps", "fair_rate_kbps"});
  double alone_2 = 0, alone_512 = 0, mux_2 = 0, mux_128 = 0;
  bool have_512 = false, have_128 = false;
  for (int n : {2, 8, 32, 128, 512}) {
    if (n > n_max) continue;
    // (a) alone on a 1 Mbit/s link; (b) with 1 TCP on 2 Mbit/s;
    // (c) with 8 TCPs on 9 Mbit/s — fair share 1 Mbit/s in each.
    const double alone =
        peak_slowstart_kbps(base_bps, n, 0, seed, horizon, cfg);
    const double one =
        peak_slowstart_kbps(2 * base_bps, n, 1, seed + 1, horizon, cfg);
    const double mux =
        peak_slowstart_kbps(9 * base_bps, n, 8, seed + 2, horizon, cfg);
    csv.row(n, alone, one, mux, base_bps / 1000.0);  // link bps -> kbit/s
    if (n == 2) {
      alone_2 = alone;
      mux_2 = mux;
    }
    if (n == 512) {
      alone_512 = alone;
      have_512 = true;
    }
    if (n == 128) {
      mux_128 = mux;
      have_128 = true;
    }
  }

  check(opts.out(), alone_2 > 1000.0 && alone_2 < 2800.0,
        "alone: slowstart reaches ~2x the bottleneck bandwidth");
  if (have_512) {
    check(opts.out(), alone_512 > 800.0,
          "alone: the overshoot bound is independent of the receiver count");
  }
  if (have_128) {
    check(opts.out(), mux_128 < mux_2 * 1.2,
          "high statistical multiplexing: exit rate does not grow with n");
    check(opts.out(), mux_128 < 2000.0,
          "with competition the slowstart rate stays near/below fair");
  }
  note(opts.out(), "alone n=2: " + std::to_string(alone_2) + " kbit/s; n=512: " +
       std::to_string(alone_512) + "; high-mux n=2: " + std::to_string(mux_2) +
       ", n=128: " + std::to_string(mux_128));
  return 0;
}
