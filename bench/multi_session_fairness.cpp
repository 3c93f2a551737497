// Inter-session fairness: M concurrent TFMCC sessions on one bottleneck.
//
// The paper argues single-session TCP-friendliness; what it leaves open is
// how multiple TFMCC sessions share a bottleneck with each other (cf.
// multi-flow congestion control, PAPERS.md).  This scenario runs M
// complete sessions — each with its own sender, group, and (data, control)
// port pair — through one dumbbell, with every right-side host subscribing
// to *all* sessions at once (the port-multiplexing case a single shared
// port convention cannot express), and reports the per-session throughput
// vector plus the pairwise and aggregate Jain fairness indices.

#include <string>
#include <vector>

#include "analysis/fairness.hpp"
#include "scenario_util.hpp"
#include "tfmcc/session_manager.hpp"

TFMCC_SCENARIO(
    multi_session_fairness,
    "M concurrent TFMCC sessions sharing one bottleneck; Jain fairness matrix",
    tfmcc::param("n_sessions", 8, "concurrent TFMCC sessions", 2.0),
    tfmcc::param("n_receivers", 4, "receiver hosts (each joins every session)",
                 1.0),
    tfmcc::param("bottleneck_mbps", 16.0, "bottleneck rate", 0.1),
    tfmcc::bench::equation_backend_param()) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Multi-session fairness",
                       "Concurrent TFMCC sessions on one bottleneck");

  const EquationBackend* eq = bench::selected_equation_backend(opts);
  if (eq == nullptr) return 2;
  const int n_sessions = opts.param_or("n_sessions", 8);
  const int n_rx = opts.param_or("n_receivers", 4);
  const double bn_bps = opts.param_or("bottleneck_mbps", 16.0) * 1e6;
  TfmccConfig cfg;
  cfg.equation = eq;

  const SimTime kRefT = 120_sec;
  const SimTime T = opts.duration_or(kRefT);
  Simulator sim{opts.seed_or(810)};
  Topology topo{sim};

  LinkConfig bn;
  bn.rate_bps = bn_bps;
  bn.delay = 20_ms;
  bn.queue_limit_packets = 50;
  bn.jitter = bench::kPhaseJitter;
  LinkConfig acc;
  acc.rate_bps = 1e9;
  acc.delay = 2_ms;
  acc.jitter = bench::kPhaseJitter;
  Dumbbell d = make_dumbbell(topo, n_sessions, n_rx, bn, acc);

  SessionManager mgr{sim, topo};
  for (int s = 0; s < n_sessions; ++s) {
    const int i = mgr.add_session(d.left_hosts[static_cast<size_t>(s)], cfg);
    // Every receiver host subscribes to every session: n_sessions receiver
    // agents per node, one per (session, data port).
    for (int r = 0; r < n_rx; ++r) {
      mgr.flow(i).add_joined_receiver(d.right_hosts[static_cast<size_t>(r)]);
    }
  }
  mgr.start_all();
  sim.run_until(T);

  const SimTime from = T / 3.0;
  const std::vector<double> x = mgr.all_session_mean_kbps(from, T);
  const FairnessReport rep = fairness_report(x);

  // One schema for both the throughput vector and the Jain matrix:
  // (metric, i, j, value); throughput rows use j = i.
  CsvWriter csv(opts.out(), {"metric", "i", "j", "value"});
  for (int i = 0; i < n_sessions; ++i) {
    csv.row("throughput_kbps", i, i, rep.throughput[static_cast<size_t>(i)]);
  }
  for (int i = 0; i < n_sessions; ++i) {
    for (int j = 0; j < n_sessions; ++j) {
      csv.row("pairwise_jain", i, j,
              rep.pairwise[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    }
  }
  csv.row("aggregate_jain", 0, 0, rep.aggregate);
  csv.row("min_pairwise_jain", 0, 0, rep.min_pairwise);

  bench::note(opts.out(),
              "aggregate Jain index: " + std::to_string(rep.aggregate) +
                  ", worst pair: " + std::to_string(rep.min_pairwise));
  double total = 0.0;
  for (double v : x) total += v;
  bench::note(opts.out(), "aggregate goodput (kbit/s): " +
                              std::to_string(total) + " of bottleneck " +
                              std::to_string(bn_bps / 1e3));
  bench::check(opts.out(), rep.aggregate > 0.5,
               "sessions share the bottleneck without starvation "
               "(aggregate Jain > 0.5)");
  bool all_positive = true;
  for (double v : x) all_positive = all_positive && v > 0.0;
  bench::check(opts.out(), all_positive,
               "every session achieves nonzero goodput");
  bench::check(opts.out(), total < 1.5 * bn_bps / 1e3,
               "aggregate goodput bounded by the bottleneck");
  return 0;
}
