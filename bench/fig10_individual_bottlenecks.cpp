// Figure 10: one TFMCC flow with 16 receivers, each behind its own
// 1 Mbit/s tail circuit shared with a dedicated TCP flow.
//
// Paper claims: with separate last-hop bottlenecks the §3 throughput
// degradation appears and TFMCC achieves only ~70% of TCP's throughput.

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig10_individual_bottlenecks,
               "Figure 10: TFMCC vs TCP on individual 1 Mbit/s tails",
               tfmcc::param("n_tails", 16, "per-receiver tail circuits", 1),
               tfmcc::param("tail_bps", 1e6, "tail circuit rate", 1e3)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 10",
                       "1 TFMCC vs 16 TCP flows on individual 1 Mbit/s tails");

  TfmccConfig cfg;
  const SimTime T = opts.duration_or(200_sec);
  const SimTime warmup = bench::warmup(60_sec, T);
  const int kTails = opts.param_or("n_tails", 16);
  Simulator sim{opts.seed_or(101)};
  Topology topo{sim};

  // Left side: the TFMCC source and 16 TCP sources behind a fat trunk.
  LinkConfig fat;
  fat.jitter = bench::kPhaseJitter;
  fat.rate_bps = 1e9;
  fat.delay = 2_ms;
  LinkConfig tail;
  tail.jitter = bench::kPhaseJitter;
  tail.rate_bps = opts.param_or("tail_bps", 1e6);
  tail.delay = 18_ms;
  tail.queue_limit_packets = 15;

  const NodeId router = topo.add_node();
  const NodeId src = topo.add_node();
  topo.add_duplex_link(src, router, fat);
  std::vector<NodeId> tcp_src(static_cast<size_t>(kTails)),
      sink(static_cast<size_t>(kTails));
  for (int i = 0; i < kTails; ++i) {
    tcp_src[static_cast<size_t>(i)] = topo.add_node();
    topo.add_duplex_link(tcp_src[static_cast<size_t>(i)], router, fat);
    sink[static_cast<size_t>(i)] = topo.add_node();
    topo.add_duplex_link(router, sink[static_cast<size_t>(i)], tail);
  }
  topo.compute_routes();

  TfmccFlow tfmcc{sim, topo, src, cfg};
  std::vector<std::unique_ptr<TcpFlow>> tcp;
  for (int i = 0; i < kTails; ++i) {
    tfmcc.add_joined_receiver(sink[static_cast<size_t>(i)]);
    tcp.push_back(std::make_unique<TcpFlow>(sim, topo, tcp_src[static_cast<size_t>(i)],
                                            sink[static_cast<size_t>(i)], i));
  }
  tfmcc.sender().start(SimTime::zero());
  for (int i = 0; i < kTails; ++i) tcp[static_cast<size_t>(i)]->start(SimTime::millis(41 * i));
  sim.run_until(T);

  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  bench::emit_series(csv, "TFMCC", tfmcc.goodput(0), warmup, T);
  bench::emit_series(csv, "TCP 1", tcp[0]->goodput, warmup, T);
  if (kTails > 1) {
    bench::emit_series(csv, "TCP 2", tcp[1]->goodput, warmup, T);
  }

  const double tfmcc_kbps = tfmcc.goodput(0).mean_kbps(warmup, T);
  double tcp_kbps = 0;
  for (const auto& t : tcp) tcp_kbps += t->mean_kbps(warmup, T);
  tcp_kbps /= kTails;

  const double ratio = tfmcc_kbps / tcp_kbps;
  bench::note(opts.out(), "TFMCC " + std::to_string(tfmcc_kbps) + " kbit/s, TCP avg " +
              std::to_string(tcp_kbps) + " kbit/s, ratio " +
              std::to_string(ratio) + " (paper: ~0.7)");
  bench::check(opts.out(), ratio < 1.0,
               "independent tail bottlenecks degrade TFMCC below TCP");
  bench::check(opts.out(), ratio > 0.3, "degradation is bounded (no collapse)");
  return 0;
}
