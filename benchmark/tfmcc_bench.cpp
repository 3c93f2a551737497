// tfmcc_bench: one episode of a benchmark workload, built from the simulator
// core's public API, reported as one JSON record on stdout.
//
//   tfmcc_bench <workload> [--seed N] [--trace] [--quick] [--scratch DIR]
//
// Workloads (see README.md for why each was chosen):
//   fanout_full       fig. 12 topology: 1000 full receivers + 2 TCP flows
//   hybrid_1m         one session of 10^6 receivers: 16 full + 8 modeled blocks
//   churn_sessions    4 sessions x 500 receivers on one dumbbell, flash crowd
//                     then random leave/rejoin
//   sweep_replicated  in-process run_sweep over a small TFMCC+TCP scenario
//
// The seed drives every generated input (access delays, churn times, the
// simulator's root RNG).  --quick runs 1/20 of the simulated horizon.
// --trace attaches timing proxies around each layer's public calls; the
// simulated outcome, and therefore the digest, is the same either way.
// The exit code is nonzero when a sanity check fails.

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/builders.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_state.hpp"
#include "tcp/tcp.hpp"
#include "tfmcc/flow.hpp"
#include "tfmcc/session_manager.hpp"
#include "trace.hpp"
#include "util/csv.hpp"

namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;
using bench::ScopedSpan;
using bench::Span;

// Simulated horizons, in seconds, of one full-length episode.  --quick
// divides each by kQuickDivisor.
constexpr int kFanoutHorizon = 60;
constexpr int kHybridHorizon = 40;
constexpr int kChurnHorizon = 40;
constexpr int kSweepRunHorizon = 20;
constexpr int kQuickDivisor = 20;

// Sweep grid: 4 x 4 points, each replicated kSweepReplicates times.
constexpr int kSweepReplicates = 8;
constexpr int kSweepJobs = 2;
constexpr int kSweepCheckpointEvery = 8;

// Churn: membership events per simulated second after the flash crowd.
constexpr double kChurnRate = 150.0;

std::int64_t g_main_ns = 0;
bool g_trace = false;
std::atomic<std::uint64_t> g_failed_sweep_runs{0};

struct Outcome {
  double setup_s{0.0};
  std::uint64_t digest{0};
  std::vector<std::string> failures;
  double horizon_s{0.0};
  std::uint64_t attempted{1};
  std::uint64_t failed_runs{0};
  // Sweep only.
  double sweep_wall_s{0.0};
  std::uint64_t checkpoint_saves{0};
  std::uint64_t checkpoint_bytes{0};
};

double since_main_s() {
  return static_cast<double>(bench::now_ns() - g_main_ns) * 1e-9;
}

LinkConfig link_config(double rate_bps, SimTime delay,
                       std::size_t queue_packets = 50) {
  LinkConfig c;
  c.rate_bps = rate_bps;
  c.delay = delay;
  c.queue_limit_packets = queue_packets;
  // One bottleneck service time of jitter breaks TCP/drop-tail phase
  // locking, as in every experiment topology of the repository.
  c.jitter = 1_ms;
  return c;
}

/// One simulation plus the bookkeeping the benchmark does around it: the
/// links it built, the flows whose outcomes go into the digest, and (when
/// tracing) the timing proxies on every agent port.
class Episode {
 public:
  Episode(std::uint64_t seed, bool trace)
      : sim{seed},
        topo{sim},
        trace_{trace},
        timed_eq_{float_equation_backend()} {
    if (trace_) cfg.equation = &timed_eq_;
  }

  Simulator sim;
  Topology topo;
  TfmccConfig cfg;
  std::vector<std::string> failures;

  void add_links(std::pair<Link*, Link*> duplex) {
    links_.push_back(duplex.first);
    links_.push_back(duplex.second);
  }

  void add_dumbbell_links(const Dumbbell& d) {
    links_.push_back(d.bottleneck_fwd);
    links_.push_back(d.bottleneck_rev);
    for (NodeId h : d.left_hosts) {
      add_links({topo.link_between(h, d.left_router),
                 topo.link_between(d.left_router, h)});
    }
    for (NodeId h : d.right_hosts) {
      add_links({topo.link_between(h, d.right_router),
                 topo.link_between(d.right_router, h)});
    }
  }

  void add_flow(TfmccFlow& f) {
    flows_.push_back(&f);
    attach_proxy(f.session().source(), f.session().control_port(),
                 f.sender(), bench::kSender);
  }

  void add_tcp(TcpFlow& t, NodeId src, NodeId dst, FlowId id) {
    tcps_.push_back(&t);
    attach_proxy(src, TcpFlow::sender_port(id), *t.sender, bench::kTcp);
    attach_proxy(dst, TcpFlow::sink_port(id), *t.sink, bench::kTcp);
  }

  /// Joins receiver `rx` of `f`, hosted on `node`.  join() attaches the
  /// receiver itself on its port, so the proxy is re-attached after it.
  void join(TfmccFlow& f, int rx, NodeId node) {
    TfmccReceiver& r = f.receiver(rx);
    if (!trace_) {
      r.join();
      return;
    }
    {
      ScopedSpan s{bench::kReceiverJoin};
      r.join();
    }
    attach_proxy(node, f.session().data_port(), r, bench::kReceiver);
  }

  void leave(TfmccFlow& f, int rx) {
    if (!trace_) {
      f.receiver(rx).leave();
      return;
    }
    ScopedSpan s{bench::kReceiverLeave};
    f.receiver(rx).leave();
  }

  void join_block(TfmccFlow& f, int b, NodeId tap) {
    f.block(b).join();
    attach_proxy(tap, f.session().data_port(), f.block(b), bench::kBlock);
  }

  /// Advances the simulation in 1-simulated-second slices, sampling every
  /// sender's rate into the digest at each slice boundary.
  void run(int horizon_s) {
    bench::ThreadTrace& t = bench::TraceRegistry::local();
    for (int s = 1; s <= horizon_s; ++s) {
      {
        ScopedSpan loop{bench::kLoop};
        sim.run_until(SimTime::seconds(static_cast<double>(s)));
      }
      for (TfmccFlow* f : flows_) digest_.add(f->sender().rate_Bps());
      t.counters[bench::kPendingPeak] =
          std::max<std::uint64_t>(t.counters[bench::kPendingPeak],
                                  sim.scheduler().pending_count());
    }
  }

  /// Folds the end-of-run outcomes into the digest and the layer counters
  /// into this thread's trace table; returns the digest.  Scheduler and
  /// packet-pool counts stay out of the digest, so an optimisation that
  /// removes events still matches.
  std::uint64_t finish() {
    using namespace bench;
    Counters& c = TraceRegistry::local().counters;
    auto count = [&c](Counter k, auto v) {
      c[k] += static_cast<std::uint64_t>(v);
    };
    count(kRuns, 1);
    count(kEvents, sim.scheduler().executed());
    count(kPoolHeapAllocations, sim.packet_pool().heap_allocations());
    for (NodeId n = 0; n < topo.node_count(); ++n) {
      count(kForwarded, topo.node(n).forwarded());
      count(kDeliveredEndpoints, topo.node(n).delivered_endpoints());
    }
    for (Link* l : links_) {
      count(kLinkDelivered, l->delivered_packets());
      count(kQueueDrops, l->queue_drops());
      count(kQueueAccepted, l->queue().accepted());
      digest_.add(l->delivered_packets());
      digest_.add(l->queue_drops());
      digest_.add(l->loss_model_drops());
    }
    for (TfmccFlow* f : flows_) {
      const TfmccSender& s = f->sender();
      count(kSenderRounds, s.round());
      count(kSenderFeedback, s.feedback_received());
      count(kDataSent, s.data_sent());
      count(kClrChanges, s.clr_history().size());
      digest_.add(s.data_sent());
      digest_.add(s.feedback_received());
      digest_.add(static_cast<std::int64_t>(s.round()));
      digest_.add(static_cast<std::int64_t>(s.clr()));
      digest_.add(s.rate_Bps());
      for (const auto& [t, id] : s.clr_history()) {
        digest_.add(t.count_nanos());
        digest_.add(static_cast<std::int64_t>(id));
      }
      for (int i = 0; i < f->receiver_count(); ++i) {
        const TfmccReceiver& r = f->receiver(i);
        count(kReceiverFeedback, r.feedback_sent());
        digest_.add(r.packets_received());
        digest_.add(r.packets_lost());
        digest_.add(r.feedback_sent());
      }
      for (int b = 0; b < f->block_count(); ++b) {
        const ModeledReceiverBlock& blk = f->block(b);
        count(kBlockFeedback, blk.feedback_sent());
        count(kBlockReceiverRounds,
              static_cast<std::int64_t>(blk.count()) * s.round());
        digest_.add(blk.packets_received());
        digest_.add(blk.packets_lost());
        digest_.add(blk.feedback_sent());
        digest_.add(static_cast<std::int64_t>(blk.receivers_with_rtt()));
      }
      if (!(s.rate_Bps() > 0.0)) failures.push_back("sender rate is not > 0");
    }
    for (TcpFlow* t : tcps_) {
      digest_.add(t->sender->packets_sent());
      digest_.add(t->sender->retransmits());
      digest_.add(t->sender->timeouts());
      digest_.add(t->sink->delivered_packets());
    }
    return digest_.value();
  }

  /// Suppression (§2.5) must cancel most reports: feedback per round stays
  /// well below the receiver population.
  void check_feedback(const TfmccFlow& f, int population) {
    const TfmccSender& s = f.sender();
    const double per_round = static_cast<double>(s.feedback_received()) /
                             std::max(1, s.round());
    const double limit = population / 4.0;
    if (per_round > limit) {
      failures.push_back("feedback per round " + std::to_string(per_round) +
                         " exceeds " + std::to_string(limit));
    }
  }

  void check_endpoints(TfmccFlow& f, int expected) {
    const int got = f.session().total_endpoint_count();
    if (got != expected) {
      failures.push_back("session counts " + std::to_string(got) +
                         " endpoints, expected " + std::to_string(expected));
    }
  }

  bench::Digest& digest() { return digest_; }

 private:
  void attach_proxy(NodeId node, PortId port, Agent& a, Span kind) {
    if (!trace_) return;
    auto& p = proxies_[&a];
    if (!p) p = std::make_unique<bench::TimedAgent>(a, kind);
    topo.node(node).attach_agent(port, p.get());
  }

  bool trace_;
  bench::TimedEquationBackend timed_eq_;
  std::vector<Link*> links_;
  std::vector<TfmccFlow*> flows_;
  std::vector<TcpFlow*> tcps_;
  std::unordered_map<const Agent*, std::unique_ptr<bench::TimedAgent>>
      proxies_;
  bench::Digest digest_;
};

// ---------------------------------------------------------------------------
// fanout_full: every data packet is copied to 1000 hosts.

Outcome run_fanout_full(std::uint64_t seed, int horizon_s) {
  constexpr int kReceivers = 1000;
  constexpr int kTcp = 2;
  Episode e{seed, g_trace};
  const LinkConfig acc = link_config(1e9, 2_ms);
  NodeId src = 0;
  NodeId left = 0;
  NodeId right = 0;
  std::vector<NodeId> hosts(kReceivers);
  std::vector<NodeId> tcp_src(kTcp);
  std::vector<NodeId> tcp_dst(kTcp);
  {
    ScopedSpan s{bench::kSetupTopology};
    src = e.topo.add_node();
    left = e.topo.add_node();
    right = e.topo.add_node();
    e.add_links(e.topo.add_duplex_link(src, left, acc));
    // Fig. 12 uses 500 kbit/s and a 20-packet queue; there two TCP flows
    // hold the 1000-receiver session at its 1 packet/s floor and fan-out
    // would be a few percent of the run.
    e.add_links(e.topo.add_duplex_link(left, right,
                                       link_config(1e6, 20_ms, 50)));
    // Access delays spread path RTTs over ~60..140 ms (fig. 12).
    Rng delay_rng{seed * 10 + 2};
    for (NodeId& h : hosts) {
      h = e.topo.add_node();
      LinkConfig a = acc;
      a.delay = SimTime::millis(delay_rng.uniform_int(8, 48));
      e.add_links(e.topo.add_duplex_link(right, h, a));
    }
    for (int i = 0; i < kTcp; ++i) {
      tcp_src[i] = e.topo.add_node();
      e.add_links(e.topo.add_duplex_link(tcp_src[i], left, acc));
      tcp_dst[i] = e.topo.add_node();
      e.add_links(e.topo.add_duplex_link(right, tcp_dst[i], acc));
    }
    e.topo.compute_routes();
  }
  TfmccFlow flow{e.sim, e.topo, src, e.cfg};
  e.add_flow(flow);
  for (NodeId h : hosts) e.join(flow, flow.add_receiver(h), h);
  std::vector<std::unique_ptr<TcpFlow>> tcp;
  for (int i = 0; i < kTcp; ++i) {
    tcp.push_back(std::make_unique<TcpFlow>(e.sim, e.topo, tcp_src[i],
                                            tcp_dst[i], i));
    e.add_tcp(*tcp.back(), tcp_src[i], tcp_dst[i], i);
  }
  flow.sender().start(SimTime::zero());
  for (int i = 0; i < kTcp; ++i) tcp[i]->start(SimTime::millis(41 * i));

  Outcome out;
  out.setup_s = since_main_s();
  e.run(horizon_s);
  out.digest = e.finish();
  e.check_endpoints(flow, kReceivers);
  e.check_feedback(flow, kReceivers);
  out.failures = std::move(e.failures);
  return out;
}

// ---------------------------------------------------------------------------
// hybrid_1m: 10^6 receivers, nearly all in modeled SoA blocks.

Outcome run_hybrid_1m(std::uint64_t seed, int horizon_s) {
  constexpr int kReceivers = 1'000'000;
  constexpr int kFull = 16;
  constexpr int kTaps = 8;
  Episode e{seed, g_trace};
  const LinkConfig acc = link_config(1e9, 2_ms);
  NodeId src = 0;
  std::vector<NodeId> hosts(kFull);
  std::vector<NodeId> taps(kTaps);
  {
    ScopedSpan s{bench::kSetupTopology};
    src = e.topo.add_node();
    const NodeId left = e.topo.add_node();
    const NodeId right = e.topo.add_node();
    e.add_links(e.topo.add_duplex_link(src, left, acc));
    e.add_links(e.topo.add_duplex_link(left, right,
                                       link_config(500e3, 20_ms, 20)));
    Rng delay_rng{seed * 10 + 2};
    for (NodeId& h : hosts) {
      h = e.topo.add_node();
      LinkConfig a = acc;
      a.delay = SimTime::millis(delay_rng.uniform_int(8, 48));
      e.add_links(e.topo.add_duplex_link(right, h, a));
    }
    for (NodeId& t : taps) {
      t = e.topo.add_node();
      LinkConfig a = acc;
      a.delay = 8_ms;  // the blocks' virtual detours add the 0..40 ms spread
      e.add_links(e.topo.add_duplex_link(right, t, a));
    }
    e.topo.compute_routes();
  }
  TfmccFlow flow{e.sim, e.topo, src, e.cfg};
  e.add_flow(flow);
  for (NodeId h : hosts) e.join(flow, flow.add_receiver(h), h);
  const int n_model = kReceivers - kFull;
  for (int t = 0; t < kTaps; ++t) {
    const int count = n_model / kTaps + (t == 0 ? n_model % kTaps : 0);
    e.join_block(flow, flow.add_modeled_block(taps[t], count, SimTime::zero(),
                                              40_ms),
                 taps[t]);
  }
  flow.sender().start(SimTime::zero());

  Outcome out;
  out.setup_s = since_main_s();
  e.run(horizon_s);
  out.digest = e.finish();
  e.check_endpoints(flow, kReceivers);
  e.check_feedback(flow, kReceivers);
  out.failures = std::move(e.failures);
  return out;
}

// ---------------------------------------------------------------------------
// churn_sessions: membership changes while the same trees serve fan-out.

/// Drives the membership of every session's non-anchor receivers: first a
/// flash crowd joins them all, in random order, evenly over
/// [crowd_from, crowd_to]; then random leave/rejoin toggles arrive as a
/// Poisson process of `rate` events per simulated second.  One pending event
/// at a time, each scheduling the next.
class ChurnGenerator {
 public:
  ChurnGenerator(Episode& e, SessionManager& sm,
                 const std::vector<std::vector<NodeId>>& hosts, Rng rng,
                 double rate)
      : e_{e}, sm_{sm}, hosts_{hosts}, rng_{std::move(rng)}, rate_{rate} {
    for (int s = 0; s < sm_.session_count(); ++s) {
      for (int rx = 1; rx < sm_.flow(s).receiver_count(); ++rx) {
        crowd_.emplace_back(s, rx);
      }
    }
    for (std::size_t i = crowd_.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(crowd_[i - 1], crowd_[j]);
    }
  }

  void start(SimTime crowd_from, SimTime crowd_to) {
    crowd_from_ = crowd_from;
    crowd_span_ = crowd_to - crowd_from;
    e_.sim.at(crowd_from_, [this] { fire(); });
  }

  std::int64_t joins() const { return joins_; }
  std::int64_t leaves() const { return leaves_; }

 private:
  void fire() {
    if (next_crowd_ < crowd_.size()) {
      const auto [s, rx] = crowd_[next_crowd_++];
      toggle(s, rx);
      if (next_crowd_ < crowd_.size()) {
        const double frac = static_cast<double>(next_crowd_) /
                            static_cast<double>(crowd_.size());
        e_.sim.at(crowd_from_ + crowd_span_ * frac, [this] { fire(); });
        return;
      }
    } else {
      const int s = static_cast<int>(
          rng_.uniform_int(0, sm_.session_count() - 1));
      const int rx = static_cast<int>(
          rng_.uniform_int(1, sm_.flow(s).receiver_count() - 1));
      toggle(s, rx);
    }
    e_.sim.in(SimTime::seconds(rng_.exponential(1.0 / rate_)),
              [this] { fire(); });
  }

  void toggle(int s, int rx) {
    TfmccFlow& f = sm_.flow(s);
    if (f.receiver(rx).joined()) {
      e_.leave(f, rx);
      ++leaves_;
    } else {
      e_.join(f, rx, hosts_[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(rx)]);
      ++joins_;
    }
  }

  Episode& e_;
  SessionManager& sm_;
  const std::vector<std::vector<NodeId>>& hosts_;
  Rng rng_;
  double rate_;
  std::vector<std::pair<int, int>> crowd_;
  std::size_t next_crowd_{0};
  SimTime crowd_from_{};
  SimTime crowd_span_{};
  std::int64_t joins_{0};
  std::int64_t leaves_{0};
};

Outcome run_churn_sessions(std::uint64_t seed, int horizon_s) {
  constexpr int kSessions = 4;
  constexpr int kHosts = 1000;
  Episode e{seed, g_trace};
  Dumbbell d;
  {
    ScopedSpan s{bench::kSetupTopology};
    d = make_dumbbell(e.topo, kSessions, kHosts,
                      link_config(2e6, 20_ms, 50), link_config(1e9, 2_ms));
    e.topo.compute_routes();
  }
  e.add_dumbbell_links(d);

  // Two sessions' agents per host: even sessions use the even hosts, odd
  // sessions the odd ones.  Receiver 0 of each session is its anchor and
  // stays joined for the whole run.
  SessionManager sm{e.sim, e.topo};
  std::vector<std::vector<NodeId>> hosts(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sm.add_session(d.left_hosts[static_cast<std::size_t>(s)], e.cfg);
    e.add_flow(sm.flow(s));
    for (int h = s % 2; h < kHosts; h += 2) {
      const NodeId node = d.right_hosts[static_cast<std::size_t>(h)];
      sm.flow(s).add_receiver(node);
      hosts[static_cast<std::size_t>(s)].push_back(node);
    }
    e.join(sm.flow(s), 0, hosts[static_cast<std::size_t>(s)][0]);
  }
  ChurnGenerator churn{e, sm, hosts, e.sim.make_rng(42'000), kChurnRate};
  const SimTime crowd_to =
      SimTime::seconds(std::max(1.0, 0.15 * horizon_s));
  churn.start(SimTime::millis(500), crowd_to);
  sm.start_all();

  Outcome out;
  out.setup_s = since_main_s();
  e.run(horizon_s);
  e.digest().add(churn.joins());
  e.digest().add(churn.leaves());
  out.digest = e.finish();
  for (int s = 0; s < kSessions; ++s) {
    TfmccFlow& f = sm.flow(s);
    int joined = 0;
    for (int rx = 0; rx < f.receiver_count(); ++rx) {
      if (f.receiver(rx).joined()) ++joined;
    }
    e.check_endpoints(f, joined);
    e.check_feedback(f, f.receiver_count());
  }
  out.failures = std::move(e.failures);
  return out;
}

// ---------------------------------------------------------------------------
// sweep_replicated: the sweep engine over a small scenario.

int sweep_point_body(const ScenarioOptions& opts) {
  constexpr int kReceivers = 4;
  const int n_tcp = opts.param_or("n_tcp", 0);
  const double bn_kbps = opts.param_or("bottleneck_kbps", 1000.0);
  const int horizon_s = static_cast<int>(
      opts.duration_or(SimTime::seconds(kSweepRunHorizon)).to_seconds());
  Episode e{opts.seed_or(1), g_trace};
  Dumbbell d;
  {
    ScopedSpan s{bench::kSetupTopology};
    d = make_dumbbell(e.topo, 1 + n_tcp, kReceivers + n_tcp,
                      link_config(bn_kbps * 1e3, 20_ms, 50),
                      link_config(1e9, 2_ms));
  }
  e.add_dumbbell_links(d);
  TfmccFlow flow{e.sim, e.topo, d.left_hosts[0], e.cfg};
  e.add_flow(flow);
  for (int i = 0; i < kReceivers; ++i) {
    const NodeId h = d.right_hosts[static_cast<std::size_t>(i)];
    e.join(flow, flow.add_receiver(h), h);
  }
  std::vector<std::unique_ptr<TcpFlow>> tcp;
  for (int i = 0; i < n_tcp; ++i) {
    const NodeId a = d.left_hosts[static_cast<std::size_t>(1 + i)];
    const NodeId b = d.right_hosts[static_cast<std::size_t>(kReceivers + i)];
    tcp.push_back(std::make_unique<TcpFlow>(e.sim, e.topo, a, b, i));
    e.add_tcp(*tcp.back(), a, b, i);
  }
  flow.sender().start(SimTime::zero());
  for (int i = 0; i < n_tcp; ++i) tcp[i]->start(SimTime::millis(41 * i));
  e.run(horizon_s);
  e.finish();

  // Per-second, per-flow goodput: the CSV the sweep aggregates.
  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  const SimTime end = SimTime::seconds(static_cast<double>(horizon_s));
  auto emit = [&](const std::string& label, const ThroughputBinner& b) {
    for (const auto& p : b.series_kbps().points()) {
      if (p.t < end) csv.row(label, p.t.to_seconds(), p.v);
    }
  };
  for (int i = 0; i < kReceivers; ++i) {
    emit("tfmcc" + std::to_string(i), flow.goodput(i));
  }
  for (int i = 0; i < n_tcp; ++i) {
    emit("tcp" + std::to_string(i), tcp[i]->goodput);
  }
  return e.failures.empty() ? 0 : 1;
}

int sweep_point(const ScenarioOptions& opts) {
  bench::ThreadTrace& t = bench::TraceRegistry::local();
  const std::int64_t t0 = bench::now_ns();
  int rc = 1;
  {
    ScopedSpan s{bench::kSweepRun};
    rc = sweep_point_body(opts);
  }
  t.run_ms.push_back(static_cast<double>(bench::now_ns() - t0) * 1e-6);
  t.counters[bench::kOutputBytes] +=
      static_cast<std::uint64_t>(opts.out().tellp());
  if (rc != 0) ++g_failed_sweep_runs;
  return rc;
}

Outcome run_sweep_replicated(std::uint64_t seed, int run_horizon_s,
                             const std::string& scratch) {
  Scenario scenario;
  scenario.name = "bench_sweep_point";
  scenario.description = "1 TFMCC flow x 4 receivers plus n_tcp TCP flows";
  scenario.fn = &sweep_point;
  scenario.params = {param("n_tcp", 0, "competing TCP flows", 0),
                     param("bottleneck_kbps", 1000.0, "bottleneck rate", 1)};

  SweepOptions sweep;
  sweep.axes = {{"n_tcp", {"0", "1", "2", "3"}},
                {"bottleneck_kbps", {"250", "500", "1000", "2000"}}};
  sweep.jobs = kSweepJobs;
  sweep.replicate = kSweepReplicates;
  sweep.checkpoint_every = kSweepCheckpointEvery;
  sweep.base.seed = seed;
  sweep.base.duration = SimTime::seconds(static_cast<double>(run_horizon_s));

  Outcome out;
  // Set-up: grid expansion, validation and checkpoint open.
  const auto grid = expand_grid(sweep.axes);
  std::ostringstream err;
  for (const auto& point : grid) {
    ScenarioOptions opts = sweep.base;
    for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
      opts.set_param(sweep.axes[a].key, point[a]);
    }
    if (!validate_scenario_params(scenario, opts, err)) {
      out.failures.push_back("invalid sweep point: " + err.str());
      return out;
    }
  }
  std::filesystem::create_directories(scratch);
  sweep.checkpoint_path = scratch + "/sweep.ckpt";
  std::filesystem::remove(sweep.checkpoint_path);
  if (!std::ofstream{sweep.checkpoint_path}) {
    out.failures.push_back("cannot open checkpoint " + sweep.checkpoint_path);
    return out;
  }
  out.setup_s = since_main_s();

  const std::int64_t t0 = bench::now_ns();
  std::ostringstream csv;
  const int rc = run_sweep(scenario, sweep, csv, err);
  out.sweep_wall_s = static_cast<double>(bench::now_ns() - t0) * 1e-9;

  const std::uint64_t expected_runs =
      grid.size() * static_cast<std::uint64_t>(kSweepReplicates);
  out.attempted = expected_runs;
  out.failed_runs = g_failed_sweep_runs.load();
  const std::uint64_t ran =
      bench::TraceRegistry::instance().merged().counters[bench::kRuns];
  if (rc != 0) out.failures.push_back("run_sweep failed: " + err.str());
  if (ran != expected_runs) {
    out.failures.push_back("sweep ran " + std::to_string(ran) + " of " +
                           std::to_string(expected_runs) + " runs");
    out.failed_runs += expected_runs - std::min(ran, expected_runs);
  }
  bench::Digest digest;
  digest.add(csv.str());
  out.digest = digest.value();
  if (csv.str().empty()) out.failures.push_back("empty sweep aggregate");

  CheckpointProgress progress;
  std::string perr;
  if (!read_checkpoint_progress(sweep.checkpoint_path, progress, perr)) {
    out.failures.push_back("checkpoint unreadable: " + perr);
  } else if (progress.folded_tasks != expected_runs) {
    out.failures.push_back("checkpoint folded " +
                           std::to_string(progress.folded_tasks) + " tasks");
  }
  out.checkpoint_saves = progress.heartbeat;
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(sweep.checkpoint_path, ec);
  out.checkpoint_bytes = ec ? 0 : bytes;
  std::filesystem::remove(sweep.checkpoint_path, ec);
  return out;
}

// ---------------------------------------------------------------------------
// Output.

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_record(const std::string& workload, std::uint64_t seed,
                  const Outcome& o) {
  const bench::ThreadTrace t = bench::TraceRegistry::instance().merged();
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":" << json_string(workload) << ",\"seed\":" << seed
     << ",\"trace\":" << (g_trace ? 1 : 0) << ",\"horizon_s\":" << o.horizon_s
     << ",\"setup_s\":" << o.setup_s << ",\"attempted\":" << o.attempted
     << ",\"failed_runs\":" << o.failed_runs;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, o.digest);
  os << ",\"digest\":\"" << hex << "\",\"failures\":[";
  for (std::size_t i = 0; i < o.failures.size(); ++i) {
    os << (i ? "," : "") << json_string(o.failures[i]);
  }
  os << "],\"spans\":{";
  for (int k = 0; k < bench::kSpanCount; ++k) {
    const bench::SpanStat& s = t.spans[k];
    os << (k ? "," : "") << '"' << bench::kSpanNames[k] << "\":[" << s.calls
       << ',' << s.total_ns << ',' << s.self_ns() << ']';
  }
  os << "},\"counters\":{";
  for (int k = 0; k < bench::kCounterCount; ++k) {
    os << (k ? "," : "") << '"' << bench::kCounterNames[k]
       << "\":" << t.counters[k];
  }
  os << "},\"sweep\":{\"jobs\":" << kSweepJobs
     << ",\"wall_s\":" << o.sweep_wall_s
     << ",\"run_ms_p50\":" << percentile(t.run_ms, 0.5)
     << ",\"run_ms_p90\":" << percentile(t.run_ms, 0.9)
     << ",\"checkpoint_saves\":" << o.checkpoint_saves
     << ",\"checkpoint_bytes\":" << o.checkpoint_bytes << "}}";
  std::cout << os.str() << std::endl;
}

int usage() {
  std::cerr << "usage: tfmcc_bench <fanout_full|hybrid_1m|churn_sessions|"
               "sweep_replicated> [--seed N] [--trace] [--quick] "
               "[--scratch DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  g_main_ns = bench::now_ns();
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  bool quick = false;
  std::string scratch = "tfmcc_bench_scratch";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage();
    } else if (arg == "--trace") {
      g_trace = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--scratch" && i + 1 < argc) {
      scratch = argv[++i];
    } else {
      return usage();
    }
  }
  const int div = quick ? kQuickDivisor : 1;

  Outcome out;
  if (workload == "fanout_full") {
    out = run_fanout_full(seed, kFanoutHorizon / div);
    out.horizon_s = kFanoutHorizon / div;
  } else if (workload == "hybrid_1m") {
    out = run_hybrid_1m(seed, kHybridHorizon / div);
    out.horizon_s = kHybridHorizon / div;
  } else if (workload == "churn_sessions") {
    out = run_churn_sessions(seed, kChurnHorizon / div);
    out.horizon_s = kChurnHorizon / div;
  } else if (workload == "sweep_replicated") {
    out = run_sweep_replicated(seed, kSweepRunHorizon / div, scratch);
    out.horizon_s = kSweepRunHorizon / div;
  } else {
    return usage();
  }
  // A sanity failure without a failed sweep run fails the episode's one
  // operation (or, for the sweep, its aggregate).
  if (!out.failures.empty() && out.failed_runs == 0) out.failed_runs = 1;
  print_record(workload, seed, out);
  return out.failures.empty() ? 0 : 1;
}
