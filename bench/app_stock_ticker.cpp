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
// The ticker runs steady for 120 s, region B's uplink then degrades to 5%
// loss for a minute, and the run ends at 300 s; --duration rescales all
// three phases.  One CSV row per phase.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "scenario_util.hpp"

namespace {

/// Subscriber cap: topology memory grows with the subscriber count.
constexpr std::int64_t kMaxSubscribers = 100000;

}  // namespace

TFMCC_SCENARIO(app_stock_ticker,
               "Stock ticker: a low-rate stream to many subscribers through "
               "a regional loss event",
               tfmcc::param("n_receivers", 600,
                            "subscribers, split over two regions", 1)) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  const std::int64_t n_subs = opts.param_or<std::int64_t>("n_receivers", 600);
  if (n_subs > kMaxSubscribers) {
    std::cerr << "error: n_receivers expects at most " << kMaxSubscribers
              << " subscribers, got " << n_subs << '\n';
    return 2;
  }
  const int kSubscribers = static_cast<int>(n_subs);
  bench::figure_header(opts.out(), "App: stock ticker",
                       "Feedback and rate of a ticker to many subscribers");
  const SimTime kRefT = 300_sec;
  const SimTime T = opts.duration_or(kRefT);
  const std::uint64_t seed = opts.seed_or(9);

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
  Link* const to_b = topo.add_duplex_link(core, region_b, region_link).first;
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
  const TfmccSender& sender = ticker.sender();
  ticker.sender().start(SimTime::zero());

  // The sender's state at the end of each phase.
  struct PhaseEnd {
    const char* name;
    SimTime end;
    double rate_kbps{0.0};
    std::int64_t feedback{0};
    int rounds{0};
    std::int32_t clr{-1};
  };
  ScheduleBuilder sched{sim, kRefT, T};
  PhaseEnd phases[] = {{"steady", sched.warped(120_sec)},
                       {"regional_loss", sched.warped(180_sec)},
                       {"recovered", T}};
  const auto record = [&sender](PhaseEnd& p) {
    p.rate_kbps = kbps_from_Bps(sender.rate_Bps());
    p.feedback = sender.feedback_received();
    p.rounds = sender.round();
    p.clr = sender.clr();
  };
  sched.at(120_sec, [&] {
    record(phases[0]);
    to_b->set_loss_rate(0.05);
  });
  sched.at(180_sec, [&] {
    record(phases[1]);
    to_b->set_loss_rate(0.0);
  });
  sim.run_until(T);
  record(phases[2]);

  CsvWriter csv(opts.out(), {"phase", "start_s", "end_s", "rate_kbps",
                             "feedback", "rounds", "clr"});
  SimTime start = SimTime::zero();
  std::int64_t fb_before = 0;
  int rounds_before = 0;
  for (const PhaseEnd& p : phases) {
    csv.row(p.name, start.to_seconds(), p.end.to_seconds(), p.rate_kbps,
            p.feedback - fb_before, p.rounds - rounds_before, p.clr);
    start = p.end;
    fb_before = p.feedback;
    rounds_before = p.rounds;
  }

  const PhaseEnd& steady = phases[0];
  const PhaseEnd& event = phases[1];
  const PhaseEnd& total = phases[2];
  const double fb_per_round =
      static_cast<double>(total.feedback) / std::max(total.rounds, 1);
  const bool clr_in_b = event.clr >= 0 && event.clr % 2 == 1;
  bench::note(opts.out(),
              "feedback at sender: " +
                  std::to_string(static_cast<double>(steady.feedback) /
                                 steady.end.to_seconds()) +
                  " msgs/s steady, " +
                  std::to_string(static_cast<double>(total.feedback) /
                                 T.to_seconds()) +
                  " msgs/s overall");
  bench::note(opts.out(),
              "an implosion would be ~" + std::to_string(kSubscribers) +
                  " msgs per " +
                  std::to_string(sender.round_duration().to_seconds()) +
                  " s round");
  bench::note(opts.out(), std::string{"CLR in region B during the event: "} +
                              (clr_in_b ? "yes" : "no"));
  bench::note(opts.out(),
              "total feedback: " + std::to_string(total.feedback) +
                  " messages from " + std::to_string(kSubscribers) +
                  " receivers over " + std::to_string(total.rounds) +
                  " rounds");
  bench::note_schedule(opts.out(), sched);

  bench::check(opts.out(), fb_per_round < 0.1 * kSubscribers,
               "feedback per round stays far below the subscriber count "
               "(implosion avoided)");
  bench::check(opts.out(), clr_in_b,
               "the CLR moves into region B during the regional loss event");
  return 0;
}
