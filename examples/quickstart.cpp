// Quickstart: the smallest complete TFMCC program.
//
// Builds a dumbbell topology, attaches one TFMCC sender and three
// receivers, runs for a minute of simulated time and prints what happened.
//
//   $ ./examples/quickstart [seed]
//
// This mirrors the first example in README.md; start here when adopting
// the library.

#include <cstdio>

#include "example_args.hpp"
#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/flow.hpp"

int main(int argc, char** argv) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  examples::check_arg_count(argc, argv, 1, "[seed]");
  const std::uint64_t seed = examples::arg_or(argc, argv, 1, "seed", 1);

  // 1. A simulation context.  Everything derives its randomness and its
  //    notion of time from here.
  Simulator sim{seed};

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
  for (int i = 0; i < 3; ++i) flow.add_joined_receiver(net.right_hosts[static_cast<size_t>(i)]);

  // 4. Run.
  flow.sender().start(SimTime::zero());
  sim.run_until(60_sec);

  // 5. Inspect.
  std::printf("after %.0f s simulated:\n", sim.now().to_seconds());
  std::printf("  sender rate:        %8.1f kbit/s (slowstart: %s)\n",
              kbps_from_Bps(flow.sender().rate_Bps()),
              flow.sender().in_slowstart() ? "yes" : "no");
  std::printf("  current CLR:        receiver %d\n", flow.sender().clr());
  std::printf("  data packets sent:  %lld\n",
              static_cast<long long>(flow.sender().data_sent()));
  std::printf("  feedback received:  %lld (over %d rounds)\n",
              static_cast<long long>(flow.sender().feedback_received()),
              flow.sender().round());
  for (int i = 0; i < 3; ++i) {
    const auto& r = flow.receiver(i);
    std::printf(
        "  receiver %d: %6lld pkts, %4lld lost, p=%.4f, RTT %s%s, goodput "
        "%.1f kbit/s\n",
        i, static_cast<long long>(r.packets_received()),
        static_cast<long long>(r.packets_lost()), r.loss_event_rate(),
        r.rtt().str().c_str(), r.has_rtt_measurement() ? "" : " (initial)",
        flow.goodput(i).mean_kbps(0_sec, 60_sec));
  }
  return 0;
}
