// Figure 18 (Appendix D.1): competing traffic on the return paths.  A
// TFMCC flow and 4 TCP flows share a forward bottleneck while 0, 1, 2 and
// 4 additional bulk TCP flows congest the return paths of the respective
// receivers.
//
// Paper claims: none of the flows differ measurably from the case without
// return traffic — cumulative ACKs keep TCP robust, and TFMCC's sparse
// feedback is unaffected.

#include <iostream>

#include "scenario_util.hpp"

namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

struct Result {
  double tfmcc_kbps;
  std::vector<double> tcp_kbps;
};

Result run(bool with_return_traffic, double bottleneck_bps, std::uint64_t seed,
           SimTime horizon, const TfmccConfig& cfg) {
  bench::SharedBottleneck s{bottleneck_bps, 18_ms, /*n_receivers=*/4,
                            /*n_tcp=*/4, seed, 50, cfg};
  // Return flows: right-to-left bulk TCP sharing the reverse bottleneck
  // with the ACK/feedback streams; 0/1/2/4 flows rooted at the four
  // receivers' hosts.
  std::vector<std::unique_ptr<TcpFlow>> reverse;
  if (with_return_traffic) {
    int id = 50;
    const int counts[4] = {0, 1, 2, 4};
    for (int r = 0; r < 4; ++r) {
      for (int k = 0; k < counts[r]; ++k) {
        reverse.push_back(std::make_unique<TcpFlow>(
            s.sim, s.topo, s.dumbbell.right_hosts[static_cast<size_t>(r)],
            s.dumbbell.left_hosts[static_cast<size_t>(1 + r)], id++));
        reverse.back()->start(SimTime::millis(13 * id));
      }
    }
  }
  s.start_all();
  s.sim.run_until(horizon);
  const SimTime warm = bench::warmup(30_sec, horizon);
  Result res;
  res.tfmcc_kbps = s.tfmcc->goodput(0).mean_kbps(warm, horizon);
  for (const auto& t : s.tcp) {
    res.tcp_kbps.push_back(t->mean_kbps(warm, horizon));
  }
  return res;
}

}  // namespace

TFMCC_SCENARIO(fig18_return_traffic,
               "Figure 18: competing bulk TCP on the feedback return paths",
               tfmcc::param("bottleneck_bps", 5e6, "forward bottleneck rate", 1e3)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 18", "Competing traffic on return paths");

  TfmccConfig cfg;
  const SimTime horizon = opts.duration_or(120_sec);
  const std::uint64_t seed = opts.seed_or(181);
  const double bottleneck_bps = opts.param_or("bottleneck_bps", 5e6);
  const Result base = run(false, bottleneck_bps, seed, horizon, cfg);
  const Result loaded = run(true, bottleneck_bps, seed, horizon, cfg);

  CsvWriter csv(opts.out(), {"flow", "no_return_kbps", "with_return_kbps"});
  csv.row("TFMCC", base.tfmcc_kbps, loaded.tfmcc_kbps);
  for (int i = 0; i < 4; ++i) {
    csv.row("TCP(" + std::to_string(i == 0 ? 0 : 1 << (i - 1)) + " return)",
            base.tcp_kbps[static_cast<size_t>(i)],
            loaded.tcp_kbps[static_cast<size_t>(i)]);
  }

  bench::check(opts.out(), loaded.tfmcc_kbps > 0.6 * base.tfmcc_kbps,
               "TFMCC unaffected by return-path congestion");
  int robust_tcps = 0;
  for (int i = 0; i < 4; ++i) {
    if (loaded.tcp_kbps[static_cast<size_t>(i)] >
        0.5 * base.tcp_kbps[static_cast<size_t>(i)]) {
      ++robust_tcps;
    }
  }
  bench::check(opts.out(), robust_tcps >= 3,
               "TCP throughput holds up under moderate return congestion "
               "(cumulative ACKs)");
  return 0;
}
