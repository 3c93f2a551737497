// Stock-price ticker: a long-lived, low-rate multicast stream to a large
// subscriber population — the other application class the paper names as
// a natural TFMCC fit ("most current multicast applications such as
// stock-price tickers or video streaming involve just such long-lived
// data-streams", §6).
//
// The interesting protocol questions at this scale are operational:
//   * how much feedback does the sender process per second? (implosion
//     avoidance is the whole game with thousands of subscribers)
//   * what happens when a regional congestion event hits a slice of the
//     subscriber base?
//
//   $ ./examples/stock_ticker [subscribers] [seed]

#include <cstdio>
#include <vector>

#include "example_args.hpp"
#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/flow.hpp"

int main(int argc, char** argv) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  examples::check_arg_count(argc, argv, 2, "[subscribers] [seed]");
  const int kSubscribers = static_cast<int>(
      examples::arg_or(argc, argv, 1, "subscribers", 600, 1, 100000));
  const std::uint64_t seed = examples::arg_or(argc, argv, 2, "seed", 9);

  Simulator sim{seed};
  Topology topo{sim};

  // Exchange feed -> two regional distribution routers -> subscribers.
  LinkConfig feed;
  feed.rate_bps = 1e6;  // the ticker needs little bandwidth
  feed.delay = 5_ms;
  feed.queue_limit_packets = 20;
  LinkConfig region_link;
  region_link.rate_bps = 10e6;
  region_link.delay = 15_ms;
  LinkConfig tail;
  tail.rate_bps = 2e6;
  tail.delay = 10_ms;
  tail.loss_rate = 0.001;

  const NodeId exchange = topo.add_node();
  const NodeId core = topo.add_node();
  topo.add_duplex_link(exchange, core, feed);
  const NodeId region_a = topo.add_node();
  const NodeId region_b = topo.add_node();
  auto [to_b, from_b] = topo.add_duplex_link(core, region_b, region_link);
  topo.add_duplex_link(core, region_a, region_link);
  Rng tail_rng{seed + 1};
  std::vector<NodeId> subs;
  for (int i = 0; i < kSubscribers; ++i) {
    const NodeId sub = topo.add_node();
    LinkConfig t = tail;
    t.delay = SimTime::millis(tail_rng.uniform_int(5, 45));
    topo.add_duplex_link(i % 2 == 0 ? region_a : region_b, sub, t);
    subs.push_back(sub);
  }
  topo.compute_routes();

  TfmccFlow ticker{sim, topo, exchange};
  for (const NodeId sub : subs) ticker.add_joined_receiver(sub);
  ticker.sender().start(SimTime::zero());

  // Steady operation, then a regional congestion event: region B's uplink
  // degrades to 5% loss for a minute.
  sim.run_until(120_sec);
  const double fb_rate_steady =
      static_cast<double>(ticker.sender().feedback_received()) / 120.0;
  const double rate_steady = kbps_from_Bps(ticker.sender().rate_Bps());

  to_b->set_loss_rate(0.05);
  sim.run_until(180_sec);
  const double rate_congested = kbps_from_Bps(ticker.sender().rate_Bps());
  const std::int32_t clr_during_event = ticker.sender().clr();
  to_b->set_loss_rate(0.0);
  const auto fb_before_recovery = ticker.sender().feedback_received();
  sim.run_until(300_sec);
  const double fb_rate_total =
      static_cast<double>(ticker.sender().feedback_received()) / 300.0;
  const double rate_recovered = kbps_from_Bps(ticker.sender().rate_Bps());

  std::printf("subscribers:                %d\n", kSubscribers);
  std::printf("steady ticker rate:         %8.1f kbit/s\n", rate_steady);
  std::printf("feedback at sender:         %8.2f msgs/s steady, %.2f msgs/s "
              "overall\n",
              fb_rate_steady, fb_rate_total);
  std::printf("  (an implosion would be ~%d msgs per %.1f s round)\n",
              kSubscribers, ticker.sender().round_duration().to_seconds());
  std::printf("regional congestion event:  rate %8.1f kbit/s (CLR in region "
              "B: %s)\n",
              rate_congested,
              clr_during_event >= 0 && clr_during_event % 2 == 1 ? "yes"
                                                                 : "no");
  std::printf("after recovery:             %8.1f kbit/s\n", rate_recovered);
  std::printf("total feedback during run:  %lld messages from %d receivers "
              "over %d rounds\n",
              static_cast<long long>(ticker.sender().feedback_received()),
              kSubscribers, ticker.sender().round());
  (void)fb_before_recovery;
  return 0;
}
