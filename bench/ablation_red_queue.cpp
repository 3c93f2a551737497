// Ablation: queue discipline.  §4 of the paper: "Generally, both fairness
// towards TCP and intra-protocol fairness improve when active queuing
// (e.g. RED) is used instead" of drop-tail.  One TFMCC flow and 4 TCP
// flows on a shared bottleneck, drop-tail vs RED.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "scenario_util.hpp"

namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

/// |log(tfmcc/tcp)| fairness distance (0 = perfectly fair).
double fairness_distance(bool use_red, int n_tcp, double bottleneck_bps,
                         std::uint64_t seed, SimTime horizon,
                         const TfmccConfig& cfg) {
  Simulator sim{seed};
  Topology topo{sim};
  const Dumbbell d = bench::jittered_dumbbell(
      topo, 1 + n_tcp, 1 + n_tcp,
      {.rate_bps = bottleneck_bps, .delay = 18_ms, .use_red = use_red});
  TfmccFlow flow{sim, topo, d.left_hosts[0], cfg};
  flow.add_joined_receiver(d.right_hosts[0]);
  std::vector<std::unique_ptr<TcpFlow>> tcp;
  for (int i = 0; i < n_tcp; ++i) {
    tcp.push_back(std::make_unique<TcpFlow>(sim, topo, d.left_hosts[static_cast<size_t>(i + 1)],
                                            d.right_hosts[static_cast<size_t>(i + 1)], i));
    tcp.back()->start(SimTime::millis(41 * i));
  }
  flow.sender().start(SimTime::zero());
  sim.run_until(horizon);
  const SimTime warm = bench::warmup(60_sec, horizon);
  double tcp_kbps = 0;
  for (const auto& t : tcp) tcp_kbps += t->mean_kbps(warm, horizon);
  tcp_kbps /= static_cast<double>(n_tcp);
  const double tfmcc_kbps = flow.goodput(0).mean_kbps(warm, horizon);
  return std::fabs(std::log(std::max(tfmcc_kbps, 1.0) / std::max(tcp_kbps, 1.0)));
}

}  // namespace

TFMCC_SCENARIO(ablation_red_queue,
               "Ablation: drop-tail vs RED at the bottleneck",
               tfmcc::param("n_tcp", 4, "competing TCP flows", 1),
               tfmcc::param("bottleneck_bps", 5e6, "shared bottleneck rate",
                            1e3)) {
  using tfmcc::bench::check;
  using tfmcc::bench::figure_header;
  using tfmcc::bench::note;

  figure_header(opts.out(), "Ablation", "Drop-tail vs RED at the bottleneck");

  tfmcc::TfmccConfig cfg;
  const tfmcc::SimTime horizon = opts.duration_or(180_sec);
  const std::uint64_t seed = opts.seed_or(321);
  const int n_tcp = opts.param_or("n_tcp", 4);
  const double bottleneck_bps = opts.param_or("bottleneck_bps", 5e6);
  const double droptail =
      fairness_distance(false, n_tcp, bottleneck_bps, seed, horizon, cfg);
  const double red =
      fairness_distance(true, n_tcp, bottleneck_bps, seed, horizon, cfg);

  tfmcc::CsvWriter csv(opts.out(), {"queue", "abs_log_fairness_ratio"});
  csv.row("droptail", droptail);
  csv.row("red", red);

  check(opts.out(), red < droptail + 0.35,
        "RED does not worsen TFMCC/TCP fairness (paper: it improves it)");
  note(opts.out(), "fairness distance |log ratio|: droptail " + std::to_string(droptail) +
       ", RED " + std::to_string(red));
  return 0;
}
