// Figure 19 (Appendix D.1): lossy return paths.  Four receivers whose
// reverse links lose 0%, 10%, 20% and 30% of packets; a TCP flow to each
// receiver and a TFMCC flow with receivers at all four nodes.
//
// Paper claims: TCP throughput decreases only at very high return loss
// (cumulative ACKs), and TFMCC is insensitive to the loss of receiver
// reports.

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig19_lossy_return,
               "Figure 19: lossy receiver-report return paths",
               tfmcc::param("return_loss1", 0.0, "report loss, receiver 1", 0.0),
               tfmcc::param("return_loss2", 0.1, "report loss, receiver 2", 0.0),
               tfmcc::param("return_loss3", 0.2, "report loss, receiver 3", 0.0),
               tfmcc::param("return_loss4", 0.3, "report loss, receiver 4", 0.0),
               tfmcc::param("leaf_bps", 5e6, "forward leaf rate", 1e3)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 19", "Lossy return paths");

  TfmccConfig cfg;

  const SimTime T = opts.duration_or(120_sec);
  const SimTime warm = bench::warmup(30_sec, T);
  const double kReturnLoss[4] = {
      opts.param_or("return_loss1", 0.0), opts.param_or("return_loss2", 0.1),
      opts.param_or("return_loss3", 0.2), opts.param_or("return_loss4", 0.3)};
  Simulator sim{opts.seed_or(191)};
  Topology topo{sim};
  LinkConfig trunk;
  trunk.jitter = bench::kPhaseJitter;
  trunk.rate_bps = 1e9;
  trunk.delay = 5_ms;
  const NodeId hub = topo.add_node();
  const NodeId tfmcc_src = topo.add_node();
  topo.add_duplex_link(tfmcc_src, hub, trunk);
  std::vector<NodeId> tcp_src(4), leaf(4);
  for (int i = 0; i < 4; ++i) {
    tcp_src[static_cast<size_t>(i)] = topo.add_node();
    topo.add_duplex_link(tcp_src[static_cast<size_t>(i)], hub, trunk);
    leaf[static_cast<size_t>(i)] = topo.add_node();
    LinkConfig fwd;
    fwd.rate_bps = opts.param_or("leaf_bps", 5e6);
    fwd.delay = 20_ms;
    LinkConfig rev = fwd;
    rev.loss_rate = kReturnLoss[static_cast<size_t>(i)];
    topo.add_link(hub, leaf[static_cast<size_t>(i)], fwd);
    topo.add_link(leaf[static_cast<size_t>(i)], hub, rev);
  }
  topo.compute_routes();

  TfmccFlow tfmcc{sim, topo, tfmcc_src, cfg};
  std::vector<std::unique_ptr<TcpFlow>> tcp;
  for (int i = 0; i < 4; ++i) {
    tfmcc.add_joined_receiver(leaf[static_cast<size_t>(i)]);
    tcp.push_back(std::make_unique<TcpFlow>(sim, topo, tcp_src[static_cast<size_t>(i)],
                                            leaf[static_cast<size_t>(i)], i));
    tcp.back()->start(SimTime::millis(41 * i));
  }
  tfmcc.sender().start(SimTime::zero());
  sim.run_until(T);

  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  bench::emit_series(csv, "TFMCC", tfmcc.goodput(0), 0_sec, T);
  for (int i = 0; i < 4; ++i) {
    bench::emit_series(
        csv, "TCP (" + std::to_string(static_cast<int>(kReturnLoss[static_cast<size_t>(i)] * 100)) + "% loss)",
        tcp[static_cast<size_t>(i)]->goodput, 0_sec, T);
  }

  const double tfmcc_kbps = tfmcc.goodput(0).mean_kbps(warm, T);
  const double tcp0 = tcp[0]->mean_kbps(warm, T);
  const double tcp30 = tcp[3]->mean_kbps(warm, T);

  bench::note(opts.out(), "TFMCC " + std::to_string(tfmcc_kbps) + " kbit/s; TCP 0% " +
              std::to_string(tcp0) + ", TCP 30% " + std::to_string(tcp30));
  bench::check(opts.out(), tfmcc_kbps > 500.0,
               "TFMCC sustains throughput despite 30% report loss on one path");
  bench::check(opts.out(), tcp30 > 0.35 * tcp0,
               "TCP with 30% ACK loss keeps most of its throughput");
  return 0;
}
