// Figure 12: rate of initial RTT measurements.  1000 receivers behind one
// bottleneck (highly correlated loss — the worst case, since every
// receiver's report is equally urgent), link RTTs spread over 60..140 ms,
// initial RTT 500 ms.
//
// Paper claims: initially the number of receivers acquiring an RTT per
// feedback round matches the expected number of feedback messages, then
// decays towards one new measurement per round (the per-round echo
// priority guarantees at least one).

#include <iostream>

#include "scenario_util.hpp"

TFMCC_SCENARIO(fig12_rtt_acquisition,
               "Figure 12: rate of initial RTT measurements, 1000 receivers",
               tfmcc::param("n_receivers", 1000, "receiver-set size", 1),
               tfmcc::param("bottleneck_bps", 500e3, "bottleneck rate", 1e3),
               tfmcc::param("sample_period_s", 5, "sampling interval", 1),
               tfmcc::param("full_receivers", 16,
                            "hybrid mode: receivers simulated as full agents",
                            1),
               tfmcc::param("model_taps", 4,
                            "hybrid mode: modeled-receiver blocks (tap nodes)",
                            1),
               tfmcc::bench::receiver_model_param()) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Figure 12", "Rate of initial RTT measurements");

  const bench::ReceiverModel model = bench::selected_receiver_model(opts);
  if (model == bench::ReceiverModel::kUnknown) return 2;
  TfmccConfig cfg;
  const int horizon_s =
      static_cast<int>(opts.duration_or(200_sec).to_seconds());
  const int kReceivers = opts.param_or("n_receivers", 1000);
  const int sample_period = opts.param_or("sample_period_s", 5);
  Simulator sim{opts.seed_or(121)};
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
  Rng delay_rng{opts.seed_or(121) * 10 + 2};
  // Hybrid tier split: the first `full_receivers` stay full agents, the
  // rest ride in modeled SoA blocks on `model_taps` tap nodes.  Full mode
  // keeps every receiver a full agent (the golden default).
  const int n_full = model == bench::ReceiverModel::kFull
                         ? kReceivers
                         : std::min(kReceivers,
                                    opts.param_or("full_receivers", 16));
  const int n_model = kReceivers - n_full;
  std::vector<NodeId> hosts(static_cast<size_t>(n_full));
  for (int i = 0; i < n_full; ++i) {
    hosts[static_cast<size_t>(i)] = topo.add_node();
    LinkConfig a = acc;
    // Spread one-way access delays so path RTTs cover ~60..140 ms.
    a.delay = SimTime::millis(delay_rng.uniform_int(8, 48));
    topo.add_duplex_link(right, hosts[static_cast<size_t>(i)], a);
  }
  std::vector<NodeId> taps;
  if (n_model > 0) {
    const int n_taps =
        std::clamp(opts.param_or("model_taps", 4), 1, n_model);
    for (int t = 0; t < n_taps; ++t) {
      LinkConfig a = acc;
      a.delay = 8_ms;  // virtual access detours add the 0..40 ms spread
      taps.push_back(topo.add_node());
      topo.add_duplex_link(right, taps.back(), a);
    }
  }
  topo.compute_routes();

  TfmccFlow flow{sim, topo, src, cfg};
  for (int i = 0; i < n_full; ++i) flow.add_joined_receiver(hosts[static_cast<size_t>(i)]);
  for (std::size_t t = 0; t < taps.size(); ++t) {
    // Spread the modeled population over the taps, remainder on the first.
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

  CsvWriter csv(opts.out(), {"time_s", "receivers_with_valid_rtt"});
  std::vector<int> samples;
  for (int t = 0; t <= horizon_s; t += sample_period) {
    sim.run_until(SimTime::seconds(static_cast<double>(t)));
    const int acquired = flow.receivers_with_rtt();
    csv.row(t, acquired);
    samples.push_back(acquired);
  }

  // Checkpoints at 10% / 50% / 100% of the horizon (20/100/200 s at the
  // paper's 200 s default), so shortened --duration runs check the same
  // acquisition shape instead of reading zeros at fixed times.
  const int at_early = samples[samples.size() / 10];
  const int at_mid = samples[samples.size() / 2];
  const int at_end = samples.back();
  const int early_s = sample_period * static_cast<int>(samples.size() / 10);

  const double rounds = std::max(1.0, static_cast<double>(flow.sender().round()));
  bench::note(opts.out(), "rounds: " + std::to_string(flow.sender().round()) +
              ", feedback messages: " +
              std::to_string(flow.sender().feedback_received()) +
              " (avg " +
              std::to_string(flow.sender().feedback_received() / rounds) +
              "/round); acquired @" + std::to_string(early_s) + "s=" +
              std::to_string(at_early) + " @" +
              std::to_string(sample_period *
                             static_cast<int>(samples.size() / 2)) +
              "s=" + std::to_string(at_mid) + " @" + std::to_string(horizon_s) +
              "s=" + std::to_string(at_end));
  bench::check(opts.out(), at_early > 0, "acquisition starts in the first rounds");
  bench::check(opts.out(), at_mid > at_early && at_end >= at_mid,
               "acquisition continues steadily (>= 1 per round)");
  bench::check(opts.out(), at_early < kReceivers / 4,
               "correlated loss keeps early acquisition gradual: bounded by "
               "the per-round feedback count, not instant");
  const double early_rate = at_early / std::max(1.0, rounds * 0.1);
  bench::note(opts.out(), "early acquisition per round ~ " + std::to_string(early_rate));
  return 0;
}
