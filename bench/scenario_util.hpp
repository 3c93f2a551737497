#pragma once

// Shared scaffolding for the packet-simulation figure benches: standard
// topologies with a TFMCC flow plus competing TCP flows, and CSV emission
// of per-second throughput traces (the paper's standard plot format).

#include <iostream>
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

/// The fig. 8 dumbbell with one TFMCC flow (n receivers) and m TCP flows,
/// everything sharing the bottleneck.
struct SharedBottleneck {
  SharedBottleneck(double bottleneck_bps, SimTime bottleneck_delay,
                   int n_receivers, int n_tcp, std::uint64_t seed,
                   std::size_t queue_pkts = 50, TfmccConfig cfg = {})
      : sim{seed}, topo{sim} {
    LinkConfig bn;
    bn.rate_bps = bottleneck_bps;
    bn.delay = bottleneck_delay;
    bn.queue_limit_packets = queue_pkts;
    bn.jitter = kPhaseJitter;
    LinkConfig acc;
    acc.rate_bps = 1e9;
    acc.delay = SimTime::millis(2);
    acc.jitter = kPhaseJitter;
    dumbbell = make_dumbbell(topo, 1 + n_tcp, n_receivers + n_tcp, bn, acc);
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

  void start_all(SimTime tfmcc_at = SimTime::zero()) {
    tfmcc->sender().start(tfmcc_at);
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

/// Post-run summary of a scripted schedule.  Silent at the default horizon
/// (warp factor 1), so default runs stay byte-identical; in a warped run it
/// reports how much of the script actually executed, which the smoke tests
/// assert on.
inline void note_schedule(std::ostream& os, const ScheduleBuilder& sched) {
  if (sched.warp().is_identity()) return;
  note(os, "schedule: fired " + std::to_string(sched.fired()) + "/" +
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
