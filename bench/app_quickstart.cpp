// Quickstart: the smallest complete TFMCC program.
//
// Builds a dumbbell topology, attaches one TFMCC sender and three
// receivers, runs for a minute of simulated time and reports what
// happened: one CSV row per receiver, the sender's state as NOTE lines.
//
//   $ tfmcc_sim app_quickstart [--seed N] [--duration S]
//
// Start here when adopting the library.

#include <string>

#include "scenario_util.hpp"

TFMCC_SCENARIO(app_quickstart,
               "Quickstart: one TFMCC sender and three receivers on a "
               "dumbbell") {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "App: quickstart",
                       "One sender, three receivers, 2 Mbit/s bottleneck");
  const SimTime T = opts.duration_or(60_sec);

  // 1. A simulation context.  Everything derives its randomness and its
  //    notion of time from here.
  Simulator sim{opts.seed_or(1)};

  // 2. A topology: one sender host, three receiver hosts, 2 Mbit/s
  //    bottleneck with 20 ms propagation delay.
  Topology topo{sim};
  LinkConfig bottleneck;
  bottleneck.rate_bps = 2e6;
  bottleneck.delay = 20_ms;
  LinkConfig access;
  access.rate_bps = 100e6;
  access.delay = 2_ms;
  const Dumbbell net = make_dumbbell(topo, /*n_left=*/1, /*n_right=*/3,
                                     bottleneck, access);

  // 3. A TFMCC flow: sender on the left, receivers join the multicast
  //    group on the right.
  TfmccFlow flow{sim, topo, net.left_hosts[0]};
  for (int i = 0; i < 3; ++i) {
    flow.add_joined_receiver(net.right_hosts[static_cast<size_t>(i)]);
  }

  // 4. Run.
  flow.sender().start(SimTime::zero());
  sim.run_until(T);

  // 5. Inspect.
  CsvWriter csv(opts.out(), {"receiver", "packets", "lost", "loss_event_rate",
                             "rtt_s", "rtt_measured", "goodput_kbps"});
  for (int i = 0; i < 3; ++i) {
    const auto& r = flow.receiver(i);
    csv.row(i, r.packets_received(), r.packets_lost(), r.loss_event_rate(),
            r.rtt().to_seconds(), r.has_rtt_measurement() ? 1 : 0,
            flow.goodput(i).mean_kbps(0_sec, T));
  }
  const TfmccSender& sender = flow.sender();
  bench::note(opts.out(), "sender rate " +
                              std::to_string(kbps_from_Bps(sender.rate_Bps())) +
                              " kbit/s, slowstart " +
                              (sender.in_slowstart() ? "yes" : "no"));
  bench::note(opts.out(), "current CLR: receiver " +
                              std::to_string(sender.clr()));
  bench::note(opts.out(),
              "data packets sent " + std::to_string(sender.data_sent()) +
                  ", feedback received " +
                  std::to_string(sender.feedback_received()) + " over " +
                  std::to_string(sender.round()) + " rounds");
  return 0;
}
