#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tfmcc/flow.hpp"

namespace tfmcc {

/// Multiplexes N concurrent TFMCC sessions over one topology.
///
/// Each session is a full TfmccFlow (its own multicast group, sender and
/// receiver set) with a disjoint (data_port, control_port) pair, so any set
/// of nodes can host receivers — or the sender — of several sessions at
/// once without the agents shadowing each other.  RNG streams are likewise
/// partitioned per session, so the randomness one session consumes never
/// perturbs another: adding a ninth session leaves sessions one through
/// eight bit-identical.
class SessionManager {
 public:
  /// First port of the managed range.  Chosen above the single-session
  /// convention (control 1, data 2) and the TCP harness ports, so a managed
  /// session can share a topology with both.
  static constexpr PortId kPortBase = 100;
  /// RNG substream spacing between sessions.  A TfmccFlow consumes streams
  /// [base, base + 1 + n_receivers) for full receivers and
  /// [base + 500'000, ...) for modeled blocks; one million keeps sessions
  /// disjoint up to ~half a million receivers each.
  static constexpr std::uint64_t kRngStride = 1'000'000;
  /// Start offset between consecutive sessions' senders, so the initial
  /// slowstarts do not phase-lock.
  static constexpr SimTime kStartStagger = SimTime::millis(37);

  SessionManager(Simulator& sim, Topology& topo) : sim_{sim}, topo_{topo} {}

  /// Create a session sourced at `source`.  Returns its index.
  int add_session(NodeId source, TfmccConfig cfg = {}) {
    const auto i = static_cast<int>(flows_.size());
    flows_.push_back(std::make_unique<TfmccFlow>(
        sim_, topo_, source, cfg,
        TfmccFlow::kDefaultRngStream +
            kRngStride * static_cast<std::uint64_t>(i),
        data_port(i), control_port(i)));
    return i;
  }

  /// Ports assigned to session `i` (valid before add_session, too: the
  /// mapping is positional, not stateful).
  static PortId data_port(int i) {
    return static_cast<PortId>(kPortBase + 2 * i);
  }
  static PortId control_port(int i) {
    return static_cast<PortId>(kPortBase + 2 * i + 1);
  }

  TfmccFlow& flow(int i) { return *flows_.at(static_cast<std::size_t>(i)); }
  const TfmccFlow& flow(int i) const {
    return *flows_.at(static_cast<std::size_t>(i));
  }
  int session_count() const { return static_cast<int>(flows_.size()); }

  /// Start every sender, session i at i * kStartStagger.
  void start_all() {
    for (int i = 0; i < session_count(); ++i) {
      flow(i).sender().start(kStartStagger * static_cast<std::int64_t>(i));
    }
  }

  /// Mean goodput (kbit/s) of session `i` over [from, to), averaged across
  /// its receivers — the per-session throughput vector the fairness engine
  /// consumes.
  double session_mean_kbps(int i, SimTime from, SimTime to) const {
    const TfmccFlow& f = flow(i);
    if (f.receiver_count() == 0) return 0.0;
    double total = 0.0;
    for (int r = 0; r < f.receiver_count(); ++r) {
      total += f.goodput(r).mean_kbps(from, to);
    }
    return total / static_cast<double>(f.receiver_count());
  }

  std::vector<double> all_session_mean_kbps(SimTime from, SimTime to) const {
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(session_count()));
    for (int i = 0; i < session_count(); ++i) {
      v.push_back(session_mean_kbps(i, from, to));
    }
    return v;
  }

 private:
  Simulator& sim_;
  Topology& topo_;
  std::vector<std::unique_ptr<TfmccFlow>> flows_;
};

}  // namespace tfmcc
