// Zipf-popularity multi-session workload.
//
// Real multicast deployments serve sessions with Zipf-distributed
// popularity: a few large sessions and a long tail of small ones (cf.
// dynamic source channels, PAPERS.md).  TFMCC's rate is driven by each
// session's worst receiver, not its population, so with homogeneous access
// links session size should *not* translate into bandwidth share.  This
// scenario checks that: session i gets ceil(max_receivers / (i+1)^s)
// receivers and the report shows whether the big sessions crowd out the
// tail.

#include <cmath>
#include <string>
#include <vector>

#include "analysis/fairness.hpp"
#include "scenario_util.hpp"
#include "tfmcc/session_manager.hpp"

TFMCC_SCENARIO(
    multi_session_zipf,
    "Concurrent TFMCC sessions with Zipf-distributed receiver populations",
    tfmcc::param("n_sessions", 8, "concurrent TFMCC sessions", 2.0),
    tfmcc::param("max_receivers", 16,
                 "receivers of the most popular session", 1.0),
    tfmcc::param("zipf_s", 1.0, "Zipf exponent", 0.0),
    tfmcc::param("bottleneck_mbps", 16.0, "bottleneck rate", 0.1)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Multi-session Zipf",
                       "Zipf session popularity on one bottleneck");

  const int n_sessions = opts.param_or("n_sessions", 8);
  const int max_rx = opts.param_or("max_receivers", 16);
  const double zipf_s = opts.param_or("zipf_s", 1.0);
  const double bn_bps = opts.param_or("bottleneck_mbps", 16.0) * 1e6;
  TfmccConfig cfg;

  const SimTime kRefT = 120_sec;
  const SimTime T = opts.duration_or(kRefT);
  Simulator sim{opts.seed_or(811)};
  Topology topo{sim};

  const Dumbbell d = bench::jittered_dumbbell(
      topo, n_sessions, max_rx, {.rate_bps = bn_bps, .delay = 20_ms});

  SessionManager mgr{sim, topo};
  std::vector<int> sizes;
  for (int s = 0; s < n_sessions; ++s) {
    const int i = mgr.add_session(d.left_hosts[static_cast<size_t>(s)], cfg);
    const int size = std::max(
        1, static_cast<int>(std::ceil(
               static_cast<double>(max_rx) /
               std::pow(static_cast<double>(s + 1), zipf_s))));
    sizes.push_back(size);
    for (int r = 0; r < size; ++r) {
      mgr.flow(i).add_joined_receiver(d.right_hosts[static_cast<size_t>(r)]);
    }
  }
  mgr.start_all();
  sim.run_until(T);

  const SimTime from = T / 3.0;
  const std::vector<double> x = mgr.all_session_mean_kbps(from, T);
  const FairnessReport rep = fairness_report(x);

  CsvWriter csv(opts.out(), {"session", "receivers", "throughput_kbps"});
  for (int i = 0; i < n_sessions; ++i) {
    csv.row(i, sizes[static_cast<size_t>(i)], x[static_cast<size_t>(i)]);
  }

  bench::note(opts.out(),
              "aggregate Jain index: " + std::to_string(rep.aggregate) +
                  ", worst pair: " + std::to_string(rep.min_pairwise));
  bench::check(opts.out(), rep.aggregate > 0.5,
               "session size does not buy bandwidth share "
               "(aggregate Jain > 0.5 despite Zipf populations)");
  bool all_positive = true;
  for (double v : x) all_positive = all_positive && v > 0.0;
  bench::check(opts.out(), all_positive,
               "tail sessions are not starved by the popular ones");
  return 0;
}
