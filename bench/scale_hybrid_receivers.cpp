// Scale scenario: a fig12-class session (one bottleneck, RTTs spread over
// ~60..140 ms) at 10^5 receivers, run on the hybrid full/model receiver
// tier: a handful of full agents plus modeled SoA blocks standing in for
// the silent majority.  This is the ROADMAP's 10^5..10^6 target made a
// first-class scenario, and the nightly perf gate's probe for the batched
// fan-out path.
//
// Expected shape: feedback suppression keeps the per-round report count
// bounded (near-constant in n, §2.5.4), RTT acquisition proceeds at >= 1
// receiver per round via the echo priority, and the sender settles near the
// bottleneck rate exactly as in the 1000-receiver full simulation.

#include <algorithm>
#include <iostream>
#include <vector>

#include "scenario_util.hpp"

TFMCC_SCENARIO(scale_hybrid_receivers,
               "Hybrid-tier scale run: fig12-class session at 100k receivers",
               tfmcc::param("n_receivers", 100000, "receiver-set size", 1),
               tfmcc::param("full_receivers", 16,
                            "receivers simulated as full agents", 1),
               tfmcc::param("model_taps", 8,
                            "modeled-receiver blocks (tap nodes)", 1),
               tfmcc::param("bottleneck_bps", 500e3, "bottleneck rate", 1e3),
               tfmcc::param("sample_period_s", 10, "sampling interval", 1),
               tfmcc::bench::receiver_model_param("hybrid")) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Scale",
                       "Hybrid receiver tier at large n");

  const bench::ReceiverModel model =
      bench::selected_receiver_model(opts, "hybrid");
  if (model == bench::ReceiverModel::kUnknown) return 2;
  TfmccConfig cfg;
  const int horizon_s = static_cast<int>(opts.duration_or(60_sec).to_seconds());
  const int kReceivers = opts.param_or("n_receivers", 100000);
  const int sample_period = opts.param_or("sample_period_s", 10);
  Simulator sim{opts.seed_or(131)};
  Topology topo{sim};

  LinkConfig bn;
  bn.jitter = bench::kPhaseJitter;
  bn.rate_bps = opts.param_or("bottleneck_bps", 500e3);
  bn.delay = 20_ms;
  bn.queue_limit_packets = 20;
  LinkConfig acc;
  acc.jitter = bench::kPhaseJitter;
  acc.rate_bps = 1e9;
  acc.delay = 2_ms;
  const NodeId src = topo.add_node();
  const NodeId left = topo.add_node();
  const NodeId right = topo.add_node();
  topo.add_duplex_link(src, left, acc);
  topo.add_duplex_link(left, right, bn);

  // Keep at least two receivers in the modeled tier even when a smoke run
  // clamps n_receivers below the full-tier default, so the short leg still
  // exercises the block path.
  const int n_full = model == bench::ReceiverModel::kFull
                         ? kReceivers
                         : std::min(opts.param_or("full_receivers", 16),
                                    std::max(0, kReceivers - 2));
  const int n_model = kReceivers - n_full;
  Rng delay_rng{opts.seed_or(131) * 10 + 2};
  std::vector<NodeId> hosts(static_cast<size_t>(n_full));
  for (int i = 0; i < n_full; ++i) {
    hosts[static_cast<size_t>(i)] = topo.add_node();
    LinkConfig a = acc;
    a.delay = SimTime::millis(delay_rng.uniform_int(8, 48));
    topo.add_duplex_link(right, hosts[static_cast<size_t>(i)], a);
  }
  std::vector<NodeId> taps;
  if (n_model > 0) {
    const int n_taps = std::clamp(opts.param_or("model_taps", 8), 1, n_model);
    for (int t = 0; t < n_taps; ++t) {
      LinkConfig a = acc;
      a.delay = 8_ms;  // virtual access detours add the 0..40 ms spread
      taps.push_back(topo.add_node());
      topo.add_duplex_link(right, taps.back(), a);
    }
  }
  topo.compute_routes();

  TfmccFlow flow{sim, topo, src, cfg};
  for (int i = 0; i < n_full; ++i) {
    flow.add_joined_receiver(hosts[static_cast<size_t>(i)]);
  }
  for (std::size_t t = 0; t < taps.size(); ++t) {
    const int per = n_model / static_cast<int>(taps.size());
    const int extra = t == 0 ? n_model % static_cast<int>(taps.size()) : 0;
    const int b = flow.add_modeled_block(taps[t], per + extra,
                                         SimTime::zero(), 40_ms);
    flow.block(b).join();
  }
  flow.sender().start(SimTime::zero());

  if (n_model > 0) {
    bench::note(opts.out(),
                "hybrid tier: " + std::to_string(n_full) + " full + " +
                    std::to_string(n_model) + " modeled receivers on " +
                    std::to_string(taps.size()) + " taps (candidate cap " +
                    std::to_string(flow.block(0).candidate_cap()) + ")");
  }
  bench::note(opts.out(),
              "session endpoints: " +
                  std::to_string(flow.session().total_endpoint_count()) +
                  " (modeled " +
                  std::to_string(flow.session().modeled_count()) + ")");

  CsvWriter csv(opts.out(), {"time_s", "receivers_with_valid_rtt",
                             "feedback_msgs", "send_rate_kbps"});
  int acquired_end = 0;
  for (int t = 0; t <= horizon_s; t += sample_period) {
    sim.run_until(SimTime::seconds(static_cast<double>(t)));
    acquired_end = flow.receivers_with_rtt();
    csv.row(t, acquired_end, flow.sender().feedback_received(),
            kbps_from_Bps(flow.sender().rate_Bps()));
  }

  const double rounds =
      std::max(1.0, static_cast<double>(flow.sender().round()));
  const double fb_per_round =
      static_cast<double>(flow.sender().feedback_received()) / rounds;
  bench::note(opts.out(),
              "rounds: " + std::to_string(flow.sender().round()) +
                  ", feedback/round " + std::to_string(fb_per_round) +
                  ", acquired " + std::to_string(acquired_end) + "/" +
                  std::to_string(kReceivers));
  bench::check(opts.out(),
               flow.session().total_endpoint_count() == kReceivers,
               "endpoint accounting covers the whole receiver population");
  bench::check(opts.out(), acquired_end > 0,
               "RTT acquisition proceeds at large n");
  // Feedback grows sublinearly (full sim: ~34/round at n=1000; hybrid:
  // ~116/round at n=10^5 — 3.4x for 100x receivers).  The implosion-
  // avoidance claim is that reports stay orders of magnitude below the
  // population, not any flat count.
  bench::check(opts.out(),
               fb_per_round < std::max(50.0, static_cast<double>(kReceivers) / 500.0),
               "suppression keeps feedback per round far below the population");
  bench::check(opts.out(), flow.sender().rate_Bps() > 0.0,
               "sender sustains a positive rate");
  return 0;
}
