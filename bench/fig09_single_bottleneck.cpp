// Figure 9: one TFMCC flow and 15 TCP flows over a single 8 Mbit/s
// bottleneck; per-second throughput of TFMCC and two sample TCPs over
// t = 60..200 s.
//
// Paper claims: TFMCC's average closely matches the average TCP
// throughput, with a visibly smoother rate.

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig09_single_bottleneck,
               "Figure 9: 1 TFMCC + 15 TCP over one 8 Mbit/s bottleneck",
               tfmcc::param("n_receivers", 4, "TFMCC receiver count", 1),
               tfmcc::param("n_tcp", 15, "competing TCP flows", 1),
               tfmcc::param("bottleneck_bps", 8e6, "shared bottleneck rate",
                            1e3)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 9",
                       "1 TFMCC + 15 TCP over a single 8 Mbit/s bottleneck");

  TfmccConfig cfg;
  const SimTime T = opts.duration_or(200_sec);
  const SimTime warmup = bench::warmup(60_sec, T);
  const int n_tcp = opts.param_or("n_tcp", 15);

  bench::SharedBottleneck s{opts.param_or("bottleneck_bps", 8e6), 18_ms,
                            opts.param_or("n_receivers", 4), n_tcp,
                            opts.seed_or(91), 50, cfg};
  s.start_all();
  s.sim.run_until(T);

  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  bench::emit_series(csv, "TFMCC", s.tfmcc->goodput(0), warmup, T);
  bench::emit_series(csv, "TCP 1", s.tcp[0]->goodput, warmup, T);
  if (n_tcp > 1) {
    bench::emit_series(csv, "TCP 2", s.tcp[1]->goodput, warmup, T);
  }

  const double tfmcc_kbps = s.tfmcc->goodput(0).mean_kbps(warmup, T);
  const double tcp_kbps = s.tcp_mean_kbps(warmup, T);
  const double cov_tfmcc = bench::trace_cov(s.tfmcc->goodput(0), warmup, T);
  double cov_tcp = 0;
  for (const auto& t : s.tcp) cov_tcp += bench::trace_cov(t->goodput, warmup, T);
  cov_tcp /= static_cast<double>(s.tcp.size());

  bench::note(opts.out(), "TFMCC " + std::to_string(tfmcc_kbps) + " kbit/s vs TCP avg " +
              std::to_string(tcp_kbps) + " kbit/s (fair share 500); CoV " +
              std::to_string(cov_tfmcc) + " vs " + std::to_string(cov_tcp));
  bench::check(opts.out(), tfmcc_kbps > tcp_kbps / 2.5 && tfmcc_kbps < tcp_kbps * 2.5,
               "TFMCC average close to the average TCP throughput");
  bench::check(opts.out(), cov_tfmcc < cov_tcp,
               "TFMCC achieves a smoother rate than TCP");
  return 0;
}
