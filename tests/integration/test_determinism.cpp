#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "net/builders.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp.hpp"
#include "tfmcc/flow.hpp"
#include "util/csv.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

struct RunResult {
  std::int64_t data_sent{};
  std::int64_t feedback{};
  std::int64_t delivered{};
  std::int64_t tcp_delivered{};
  std::uint64_t events{};
};

RunResult run_scenario(std::uint64_t seed) {
  Simulator sim{seed};
  Topology topo{sim};
  LinkConfig bn;
  bn.rate_bps = 1e6;
  bn.delay = 20_ms;
  LinkConfig acc;
  acc.rate_bps = 100e6;
  acc.delay = 2_ms;
  const Dumbbell d = make_dumbbell(topo, 2, 3, bn, acc);
  TfmccFlow flow{sim, topo, d.left_hosts[0]};
  for (int i = 0; i < 2; ++i) flow.add_joined_receiver(d.right_hosts[static_cast<size_t>(i)]);
  TcpFlow tcp{sim, topo, d.left_hosts[1], d.right_hosts[2], 0};
  flow.sender().start(SimTime::zero());
  tcp.start(500_ms);
  sim.run_until(60_sec);
  RunResult r;
  r.data_sent = flow.sender().data_sent();
  r.feedback = flow.sender().feedback_received();
  r.delivered = flow.receiver(0).packets_received();
  r.tcp_delivered = tcp.sink->delivered_packets();
  r.events = sim.scheduler().executed();
  return r;
}

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  const RunResult a = run_scenario(123);
  const RunResult b = run_scenario(123);
  EXPECT_EQ(a.data_sent, b.data_sent);
  EXPECT_EQ(a.feedback, b.feedback);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.tcp_delivered, b.tcp_delivered);
  EXPECT_EQ(a.events, b.events);
}

TEST(Determinism, DifferentSeedsPerturbTheRun) {
  const RunResult a = run_scenario(123);
  const RunResult c = run_scenario(321);
  // At least one observable differs (randomized feedback timers, loss
  // draws).  Event counts are the most sensitive.
  EXPECT_TRUE(a.events != c.events || a.feedback != c.feedback ||
              a.data_sent != c.data_sent);
}

TEST(Determinism, RunsAreIndependentOfPriorRuns) {
  (void)run_scenario(999);  // warm-up run must not affect the next
  const RunResult a = run_scenario(123);
  const RunResult b = run_scenario(123);
  EXPECT_EQ(a.events, b.events);
}

// --- parameterized runs (the --set passthrough) ----------------------------

/// A miniature bench-style scenario: topology sized from `--set` overrides,
/// CSV trace written to `out` — the whole output is the determinism
/// observable, exactly like a real scenario's stdout.
void parameterized_scenario(const ScenarioOptions& opts,
                            ScenarioOutput& out) {
  const int n_receivers = opts.param_or("n_receivers", 2);
  const int n_tcp = opts.param_or("n_tcp", 1);
  const double bottleneck_bps = opts.param_or("bottleneck_bps", 1e6);
  const SimTime T = opts.duration_or(30_sec);

  Simulator sim{opts.seed_or(1)};
  Topology topo{sim};
  LinkConfig bn;
  bn.rate_bps = bottleneck_bps;
  bn.delay = 20_ms;
  LinkConfig acc;
  acc.rate_bps = 100e6;
  acc.delay = 2_ms;
  const Dumbbell d =
      make_dumbbell(topo, 1 + n_tcp, n_receivers + n_tcp, bn, acc);
  TfmccFlow flow{sim, topo, d.left_hosts[0]};
  for (int i = 0; i < n_receivers; ++i) {
    flow.add_joined_receiver(d.right_hosts[static_cast<size_t>(i)]);
  }
  std::vector<std::unique_ptr<TcpFlow>> tcp;
  for (int i = 0; i < n_tcp; ++i) {
    tcp.push_back(std::make_unique<TcpFlow>(
        sim, topo, d.left_hosts[static_cast<size_t>(1 + i)],
        d.right_hosts[static_cast<size_t>(n_receivers + i)], i));
    tcp.back()->start(SimTime::millis(41 * i));
  }
  flow.sender().start(SimTime::zero());
  sim.run_until(T);

  CsvWriter csv(out, {"flow", "time_s", "kbps"});
  for (const auto& p : flow.goodput(0).series_kbps().points()) {
    csv.row("TFMCC", p.t.to_seconds(), p.v);
  }
  for (int i = 0; i < n_tcp; ++i) {
    for (const auto& p :
         tcp[static_cast<size_t>(i)]->goodput.series_kbps().points()) {
      csv.row("TCP " + std::to_string(i + 1), p.t.to_seconds(), p.v);
    }
  }
  csv.row("events", 0.0, static_cast<double>(sim.scheduler().executed()));
}

std::string run_parameterized(std::uint64_t seed,
                              const std::vector<std::pair<std::string,
                                                          std::string>>& sets) {
  ScenarioOptions opts;
  opts.seed = seed;
  opts.duration = SimTime::seconds(20);
  for (const auto& [k, v] : sets) opts.set_param(k, v);
  std::ostringstream os;
  ScenarioOutput text{os};
  parameterized_scenario(opts, text);
  return os.str();
}

TEST(Determinism, SameSeedAndOverridesGiveByteIdenticalOutput) {
  const std::vector<std::pair<std::string, std::string>> sets = {
      {"n_receivers", "3"}, {"n_tcp", "2"}, {"bottleneck_bps", "2e6"}};
  const std::string a = run_parameterized(123, sets);
  const std::string b = run_parameterized(123, sets);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsGiveDifferentTraces) {
  const std::vector<std::pair<std::string, std::string>> sets = {
      {"n_receivers", "3"}, {"n_tcp", "2"}};
  const std::string a = run_parameterized(123, sets);
  const std::string c = run_parameterized(321, sets);
  EXPECT_NE(a, c);
}

TEST(Determinism, OverridesActuallyChangeTheRun) {
  // Guards against a silently ignored --set: different topology sizes must
  // produce different traces under the same seed.
  const std::string small =
      run_parameterized(123, {{"n_receivers", "2"}, {"n_tcp", "1"}});
  const std::string large =
      run_parameterized(123, {{"n_receivers", "4"}, {"n_tcp", "3"}});
  EXPECT_NE(small, large);
}

}  // namespace
}  // namespace tfmcc
