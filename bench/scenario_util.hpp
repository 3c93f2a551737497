#pragma once

// Shared scaffolding for the packet-simulation figure benches: the paper's
// two topologies (the fig. 8 dumbbell and the fig. 12 session), and CSV
// emission of per-second throughput traces (the paper's standard plot
// format).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/summary.hpp"
#include "bench_util.hpp"
#include "net/builders.hpp"
#include "sim/schedule.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp.hpp"
#include "tfmcc/flow.hpp"
#include "util/csv.hpp"

namespace tfmcc::bench {

/// Per-packet processing jitter used by every experiment topology: breaks
/// the deterministic phase-locking between ACK-clocked TCP arrivals and
/// drop-tail departures (see LinkConfig::jitter).  One bottleneck packet
/// service time at ~8 Mbit/s.
inline constexpr SimTime kPhaseJitter = SimTime::millis(1);

/// Emit one flow's per-second goodput trace as CSV rows (label, t, kbps).
inline void emit_series(CsvWriter& csv, const std::string& label,
                        const ThroughputBinner& binner, SimTime from,
                        SimTime to) {
  for (const auto& p : binner.series_kbps().points()) {
    if (p.t >= from && p.t < to) csv.row(label, p.t.to_seconds(), p.v);
  }
}

/// The fig. 8 dumbbell as the experiments build it: `bottleneck` with the
/// phase jitter added, and 1 Gbit/s, 2 ms, jittered access links.
inline Dumbbell jittered_dumbbell(Topology& topo, int n_left, int n_right,
                                  LinkConfig bottleneck) {
  bottleneck.jitter = kPhaseJitter;
  return make_dumbbell(topo, n_left, n_right, bottleneck,
                       {.rate_bps = 1e9,
                        .delay = SimTime::millis(2),
                        .jitter = kPhaseJitter});
}

/// The fig. 8 dumbbell with one TFMCC flow (n receivers) and m TCP flows,
/// everything sharing the bottleneck.
struct SharedBottleneck {
  SharedBottleneck(double bottleneck_bps, SimTime bottleneck_delay,
                   int n_receivers, int n_tcp, std::uint64_t seed,
                   std::size_t queue_pkts = 50, TfmccConfig cfg = {})
      : sim{seed}, topo{sim} {
    dumbbell = jittered_dumbbell(topo, 1 + n_tcp, n_receivers + n_tcp,
                                 {.rate_bps = bottleneck_bps,
                                  .delay = bottleneck_delay,
                                  .queue_limit_packets = queue_pkts});
    tfmcc = std::make_unique<TfmccFlow>(sim, topo, dumbbell.left_hosts[0], cfg);
    for (int i = 0; i < n_receivers; ++i) {
      tfmcc->add_joined_receiver(dumbbell.right_hosts[static_cast<size_t>(i)]);
    }
    for (int i = 0; i < n_tcp; ++i) {
      tcp.push_back(std::make_unique<TcpFlow>(
          sim, topo, dumbbell.left_hosts[static_cast<size_t>(1 + i)],
          dumbbell.right_hosts[static_cast<size_t>(n_receivers + i)], i));
    }
  }

  void start_all() {
    tfmcc->sender().start(SimTime::zero());
    for (std::size_t i = 0; i < tcp.size(); ++i) {
      tcp[i]->start(SimTime::millis(41 * static_cast<std::int64_t>(i)));
    }
  }

  double tcp_mean_kbps(SimTime from, SimTime to) const {
    if (tcp.empty()) return 0.0;
    double total = 0.0;
    for (const auto& t : tcp) total += t->mean_kbps(from, to);
    return total / static_cast<double>(tcp.size());
  }

  Simulator sim;
  Topology topo;
  Dumbbell dumbbell;
  std::unique_ptr<TfmccFlow> tfmcc;
  std::vector<std::unique_ptr<TcpFlow>> tcp;
};

/// The fig. 12 session: one TFMCC flow from a source over a 1 Gbit/s, 2 ms
/// link and a 20 ms bottleneck (queue 20) to `n_receivers` receivers whose
/// access delays spread the path RTTs over ~60..140 ms.  `model_taps` = 0
/// keeps every receiver a full agent.  Otherwise min(full_receivers, n - 2)
/// stay full and the rest ride in modeled SoA blocks on `model_taps` tap
/// nodes; at least two stay modeled once n >= 2, so a smoke run's small n
/// still exercises the block path.  Every receiver is joined and the sender
/// started at 0.
struct Fig12Session {
  Fig12Session(std::uint64_t seed, int n_receivers, int full_receivers,
               int model_taps, double bottleneck_bps, TfmccConfig cfg = {})
      : sim{seed},
        topo{sim},
        n_full{model_taps == 0
                   ? n_receivers
                   : std::min(full_receivers, std::max(0, n_receivers - 2))},
        n_model{n_receivers - n_full} {
    const LinkConfig acc{.rate_bps = 1e9,
                         .delay = SimTime::millis(2),
                         .jitter = kPhaseJitter};
    const NodeId src = topo.add_node();
    const NodeId left = topo.add_node();
    const NodeId right = topo.add_node();
    topo.add_duplex_link(src, left, acc);
    topo.add_duplex_link(left, right,
                         {.rate_bps = bottleneck_bps,
                          .delay = SimTime::millis(20),
                          .queue_limit_packets = 20,
                          .jitter = kPhaseJitter});
    Rng delay_rng{seed * 10 + 2};
    std::vector<NodeId> hosts(static_cast<std::size_t>(n_full));
    for (NodeId& h : hosts) {
      h = topo.add_node();
      LinkConfig a = acc;
      a.delay = SimTime::millis(delay_rng.uniform_int(8, 48));
      topo.add_duplex_link(right, h, a);
    }
    std::vector<NodeId> taps(static_cast<std::size_t>(
        n_model > 0 ? std::clamp(model_taps, 1, n_model) : 0));
    for (NodeId& t : taps) {
      LinkConfig a = acc;
      a.delay = SimTime::millis(8);  // the blocks' detours add 0..40 ms
      t = topo.add_node();
      topo.add_duplex_link(right, t, a);
    }
    topo.compute_routes();

    flow = std::make_unique<TfmccFlow>(sim, topo, src, cfg);
    for (const NodeId h : hosts) flow->add_joined_receiver(h);
    const int n_taps = static_cast<int>(taps.size());
    for (int t = 0; t < n_taps; ++t) {
      // Spread the modeled population over the taps, remainder on the first.
      const int count = n_model / n_taps + (t == 0 ? n_model % n_taps : 0);
      flow->block(flow->add_modeled_block(taps[static_cast<std::size_t>(t)],
                                          count, SimTime::zero(),
                                          SimTime::millis(40)))
          .join();
    }
    flow->sender().start(SimTime::zero());
  }

  /// The "hybrid tier: ..." NOTE; silent when every receiver is full.
  void note_tier(ScenarioOutput& out) {
    if (n_model == 0) return;
    note(out, "hybrid tier: " + std::to_string(n_full) + " full + " +
                 std::to_string(n_model) + " modeled receivers on " +
                 std::to_string(flow->block_count()) + " taps (candidate cap " +
                 std::to_string(flow->block(0).candidate_cap()) + ")");
  }

  Simulator sim;
  Topology topo;
  int n_full;
  int n_model;
  std::unique_ptr<TfmccFlow> flow;
};

/// Post-run summary of a scripted schedule.  Silent at the default horizon
/// (warp factor 1), so default runs stay byte-identical; in a warped run it
/// reports how much of the script actually executed, which the smoke tests
/// assert on.
inline void note_schedule(ScenarioOutput& out,
                          const ScheduleBuilder& sched) {
  if (sched.warp().is_identity()) return;
  note(out, "schedule: fired " + std::to_string(sched.fired()) + "/" +
               std::to_string(sched.scheduled()) +
               " scripted events at warp factor " +
               std::to_string(sched.warp().factor()));
}

/// Coefficient of variation of a goodput trace in [from, to).
inline double trace_cov(const ThroughputBinner& binner, SimTime from,
                        SimTime to) {
  summary::Welford s;
  for (const auto& p : binner.series_kbps().points()) {
    if (p.t >= from && p.t < to) s.add(p.v);
  }
  return s.cov();
}

}  // namespace tfmcc::bench
