// Google-benchmark microbenchmarks for the hot paths of the library:
// control-equation evaluation, loss-history updates, scheduler throughput,
// multicast fan-out, route computation, uniform draws, short RNG streams,
// feedback-timer draws, whole feedback rounds, modeled-block rounds and the
// full receiver's per-packet work, alone and fanned out to many receivers.
// These guard against performance regressions that would make the
// large-scale figure benches (1000-receiver simulations) impractical.

#include <benchmark/benchmark.h>

#include "analysis/feedback_round.hpp"
#include "mcast/session.hpp"
#include "net/builders.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/feedback_timer.hpp"
#include "tfmcc/flow.hpp"
#include "tfmcc/receiver.hpp"
#include "tfmcc/receiver_block.hpp"
#include "tfrc/equation.hpp"
#include "tfrc/equation_backend.hpp"
#include "tfrc/loss_history.hpp"
#include "util/rng.hpp"

namespace {

using namespace tfmcc;

void BM_EquationFull(benchmark::State& state) {
  double p = 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tcp_model::throughput_Bps(1000.0, SimTime::millis(80), p));
    p = p < 0.5 ? p * 1.01 : 1e-4;
  }
}
BENCHMARK(BM_EquationFull);

void BM_EquationInverse(benchmark::State& state) {
  double rate = 1e4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tcp_model::loss_for_throughput(1000.0, SimTime::millis(80), rate));
    rate = rate < 1e7 ? rate * 1.1 : 1e4;
  }
}
BENCHMARK(BM_EquationInverse);

void BM_EquationBatch(benchmark::State& state,
                      const EquationBackend& backend) {
  // The sender-side per-round pattern: one equation evaluation per receiver
  // report, over a receiver set with spread RTTs and loss rates.  Exercises
  // EquationBackend::throughput_batch, which recomputes its p-only factors
  // for every distinct p.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{7};
  std::vector<SimTime> rtts(n);
  std::vector<double> losses(n);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    rtts[i] = SimTime::millis(rng.uniform_int(20, 400));
    losses[i] = rng.uniform(1e-4, 0.3);
  }
  for (auto _ : state) {
    backend.throughput_batch(1000.0, rtts.data(), losses.data(), out.data(),
                             n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_EquationBatch, float, tfmcc::float_equation_backend())
    ->Arg(64)
    ->Arg(1024);

void BM_LossHistoryReceive(benchmark::State& state) {
  LossHistory h{static_cast<int>(state.range(0))};
  SimTime t = SimTime::zero();
  int i = 0;
  for (auto _ : state) {
    h.on_packet_received();
    if (++i % 100 == 0) {
      t += SimTime::millis(500);
      h.on_packet_lost(t, SimTime::millis(100));
    }
    benchmark::DoNotOptimize(h.loss_event_rate());
  }
}
BENCHMARK(BM_LossHistoryReceive)->Arg(8)->Arg(32);

void BM_SchedulerChurn(benchmark::State& state) {
  Scheduler s;
  const auto horizon = static_cast<std::size_t>(state.range(0));
  std::vector<EventId> ids;
  ids.reserve(horizon);
  std::uint64_t n = 0;
  for (auto _ : state) {
    ids.push_back(
        s.schedule_at(s.now() + SimTime::micros(static_cast<std::int64_t>(++n % 977)),
                      [] {}));
    if (ids.size() >= horizon) {
      // Cancel half, run the rest.
      for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
      s.run();
      ids.clear();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerChurn)->Arg(64)->Arg(4096);

void BM_PacketPoolChurn(benchmark::State& state) {
  // Steady-state packet checkout/release through the per-simulator pool —
  // the "one pool checkout per multicast packet" half of the hot path.
  Simulator sim;
  const auto in_flight = static_cast<std::size_t>(state.range(0));
  std::vector<PacketPtr> live;
  live.reserve(in_flight);
  std::uint64_t n = 0;
  for (auto _ : state) {
    auto p = sim.make_packet();
    p->size_bytes = kDataPacketBytes;
    live.push_back(std::move(p));
    if (live.size() >= in_flight) live.clear();
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PacketPoolChurn)->Arg(16)->Arg(256);

void BM_MulticastFanout(benchmark::State& state) {
  // One multicast packet in per iteration, all n leaf deliveries out,
  // through an n-leaf star: the hub's fan-out, the leaf links' shared
  // transmit completion and one arrival event per copy.  Items are
  // delivered copies; ns_per_copy is the time per delivered copy.
  const int n = static_cast<int>(state.range(0));
  Simulator sim{7};
  Topology topo{sim};
  LinkConfig link;
  link.rate_bps = 1e9;
  link.delay = SimTime::millis(1);
  const Star star = make_star(topo, link, std::vector<LinkConfig>(n, link));
  const GroupId g = topo.create_group(star.sender);
  struct Sink final : Agent {
    void handle_packet(const Packet&) override { ++copies; }
    std::int64_t copies{0};
  } sink;
  for (NodeId leaf : star.leaves) {
    topo.node(leaf).attach_agent(kTfmccDataPort, &sink);
    topo.join(g, leaf);
  }
  for (auto _ : state) {
    auto p = sim.make_packet();
    p->src = star.sender;
    p->group = g;
    p->dport = kTfmccDataPort;
    p->size_bytes = kDataPacketBytes;
    topo.node(star.sender).send(p);
    sim.run();
    benchmark::DoNotOptimize(sink.copies);
  }
  state.SetItemsProcessed(sink.copies);
  state.counters["ns_per_copy"] = benchmark::Counter(
      static_cast<double>(sink.copies),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MulticastFanout)->Arg(64)->Arg(1024);

void BM_ComputeRoutes(benchmark::State& state) {
  // Unicast route computation on a fig. 12-shaped topology: a sender and
  // two core routers joined by a bottleneck, then n leaf hosts on the far
  // router with access delays spread over 8..48 ms.  The two routers run
  // Dijkstra; every leaf (and the sender) takes its one link as a default
  // route.  Items are nodes routed.
  const int n = static_cast<int>(state.range(0));
  Simulator sim{7};
  Topology topo{sim};
  LinkConfig access;
  access.rate_bps = 1e9;
  access.delay = SimTime::millis(2);
  LinkConfig bottleneck = access;
  bottleneck.rate_bps = 1e6;
  bottleneck.delay = SimTime::millis(20);
  const NodeId src = topo.add_node();
  const NodeId left = topo.add_node();
  const NodeId right = topo.add_node();
  topo.add_duplex_link(src, left, access);
  topo.add_duplex_link(left, right, bottleneck);
  Rng rng{3};
  for (int i = 0; i < n; ++i) {
    LinkConfig a = access;
    a.delay = SimTime::millis(rng.uniform_int(8, 48));
    topo.add_duplex_link(right, topo.add_node(), a);
  }
  for (auto _ : state) {
    topo.compute_routes();
    benchmark::DoNotOptimize(topo.node(src).route(right));
  }
  state.SetItemsProcessed(state.iterations() * topo.node_count());
}
BENCHMARK(BM_ComputeRoutes)->Arg(1000)->Arg(4000);

void BM_MembershipChurn(benchmark::State& state, MembershipMode mode) {
  // Tree maintenance under sustained membership churn: a dumbbell with n
  // leaf hosts, alternating leave/rejoin over a half-full group — the
  // steady-state pattern of the churn_flash_crowd scenario.  Incremental
  // graft/prune walks only the toggled member's branch (O(path)); the full
  // rebuild recomputes the whole tree (O(members x path)) per event.
  const int n = static_cast<int>(state.range(0));
  Simulator sim;
  Topology topo{sim};
  LinkConfig link;
  link.rate_bps = 1e9;
  link.delay = SimTime::millis(1);
  Dumbbell d = make_dumbbell(topo, 1, n, link, link);
  topo.compute_routes();
  const GroupId gid = topo.create_group(d.left_hosts[0]);
  topo.set_membership_mode(mode);
  // Half the receivers are members; churn toggles cycle through them.
  for (int i = 0; i < n; i += 2) topo.join(gid, d.right_hosts[static_cast<std::size_t>(i)]);
  int next = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const NodeId node = d.right_hosts[static_cast<std::size_t>(next)];
    if (topo.is_member(gid, node)) {
      topo.leave(gid, node);
    } else {
      topo.join(gid, node);
    }
    next = (next + 1) % n;
    ++events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK_CAPTURE(BM_MembershipChurn, incremental, MembershipMode::kIncremental)
    ->Arg(256)
    ->Arg(2048);
BENCHMARK_CAPTURE(BM_MembershipChurn, full_rebuild, MembershipMode::kFullRebuild)
    ->Arg(256)
    ->Arg(2048);

void BM_RngUniform01(benchmark::State& state) {
  // Enough draws per iteration to amortise the state refill, which comes
  // once every 312; ns_per_draw is the time per uniform01().
  constexpr int kDraws = 4096;
  Rng rng{1};
  for (auto _ : state) {
    double sum = 0.0;
    for (int i = 0; i < kDraws; ++i) sum += rng.uniform01();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kDraws);
  state.counters["ns_per_draw"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kDraws,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RngUniform01);

void BM_RngShortStream(benchmark::State& state) {
  // The life of a short stream, as a receiver's timer stream or an uplink's
  // jitter stream has it: a fresh arena stream that draws k words.  Each
  // iteration fills a fresh arena with kStreams such streams, so memory
  // stays bounded; a stream past Rng::kPrefixWords builds its engine.
  constexpr int kStreams = 64;
  const auto words = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  std::size_t reserved = 0;
  for (auto _ : state) {
    Arena arena;
    const Rng parent{seed++, &arena};
    std::uint64_t sum = 0;
    for (int s = 0; s < kStreams; ++s) {
      Rng rng = parent.substream(static_cast<std::uint64_t>(s));
      for (int i = 0; i < words; ++i) sum += rng.next_u64();
    }
    benchmark::DoNotOptimize(sum);
    reserved = arena.reserved_bytes();
  }
  state.SetItemsProcessed(state.iterations() * kStreams);
  state.counters["ns_per_stream"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStreams,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["arena_bytes_per_stream"] =
      static_cast<double>(reserved) / kStreams;
}
BENCHMARK(BM_RngShortStream)->Arg(1)->Arg(16)->Arg(64);

void BM_FeedbackTimerDraw(benchmark::State& state) {
  FeedbackTimerConfig cfg;
  cfg.method = static_cast<BiasMethod>(state.range(0));
  Rng rng{1};
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feedback_timer::draw(x, cfg, rng));
    x = x < 1.0 ? x + 0.001 : 0.0;
  }
}
BENCHMARK(BM_FeedbackTimerDraw)
    ->Arg(static_cast<int>(BiasMethod::kUnbiased))
    ->Arg(static_cast<int>(BiasMethod::kModifiedOffset));

void BM_FeedbackRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng{2};
  const auto values = feedback_round::uniform_values(n, 0.0, 1.0, rng);
  feedback_round::RoundConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feedback_round::simulate(values, cfg, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FeedbackRound)->Arg(100)->Arg(10000);

void BM_ModeledBlockRound(benchmark::State& state, bool slowstart) {
  // One ModeledReceiverBlock feedback round per iteration: a data packet
  // opening a new round makes the block draw every eligible receiver's
  // timer (after the equation batch, in steady state) and arm the
  // short-list.  Items are receiver-rounds.
  const int n = static_cast<int>(state.range(0));
  Simulator sim{5};
  Topology topo{sim};
  LinkConfig link;
  link.rate_bps = 1e9;
  link.delay = SimTime::millis(1);
  const Star star = make_star(topo, link, {link});
  MulticastSession session{topo, star.sender, kTfmccDataPort};
  ModeledReceiverBlock::BlockConfig bc;
  bc.count = n;
  bc.extra_owd_max = SimTime::millis(40);
  ModeledReceiverBlock block{sim, session, star.leaves[0], bc, TfmccConfig{},
                             sim.make_rng(9)};
  block.join();
  std::int64_t seqno = 0;
  std::int32_t round = 0;
  auto deliver = [&] {
    Packet p;
    p.src = star.sender;
    p.group = session.group();
    p.dport = kTfmccDataPort;
    p.size_bytes = kDataPacketBytes;
    TfmccDataHeader h;
    h.seqno = seqno++;
    h.round = round;
    h.slowstart = slowstart;
    h.send_rate_Bps = 1e9;  // above every calculated rate: all eligible
    h.send_ts = sim.now() - SimTime::millis(20);
    h.fb_deadline = SimTime::seconds(2.0);
    p.header = h;
    block.handle_packet(p);
  };
  // Warm-up: a receive-rate estimate, then one lost packet for a finite p.
  for (int i = 0; i < 20; ++i) {
    deliver();
    sim.run_until(sim.now() + SimTime::millis(10));
  }
  ++seqno;
  deliver();
  for (auto _ : state) {
    ++round;
    deliver();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_ModeledBlockRound, slowstart, true)->Arg(1000)->Arg(100000);
BENCHMARK_CAPTURE(BM_ModeledBlockRound, steady, false)->Arg(1000)->Arg(100000);

void BM_ReceiverOnData(benchmark::State& state) {
  // TfmccReceiver::handle_packet on an in-order stream, one packet per
  // millisecond, that loses every 100th packet and opens a new feedback
  // round every 256: loss detection, the loss history, the receive-rate
  // meter, each round's timer draw and the suppression check.  The clock
  // advance between packets (a scheduler run over the receiver's pending
  // feedback timer) is included.  Items are packets.
  Simulator sim{5};
  Topology topo{sim};
  LinkConfig link;
  link.rate_bps = 1e9;
  link.delay = SimTime::millis(1);
  const Star star = make_star(topo, link, {link});
  MulticastSession session{topo, star.sender, kTfmccDataPort};
  TfmccReceiver receiver{sim,           session, star.leaves[0], 0,
                         TfmccConfig{}, sim.make_rng(9)};
  receiver.join();
  std::int64_t seqno = 0;
  for (auto _ : state) {
    if (seqno % 100 == 99) ++seqno;  // lost upstream
    Packet p;
    p.src = star.sender;
    p.group = session.group();
    p.dport = kTfmccDataPort;
    p.size_bytes = kDataPacketBytes;
    TfmccDataHeader h;
    h.seqno = seqno;
    h.round = static_cast<std::int32_t>(seqno / 256);
    h.send_rate_Bps = 1.25e6;
    h.send_ts = sim.now() - SimTime::millis(20);
    h.fb_deadline = SimTime::seconds(2.0);
    p.header = h;
    receiver.handle_packet(p);
    ++seqno;
    sim.run_until(sim.now() + SimTime::millis(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReceiverOnData);

void BM_ReceiverFanout(benchmark::State& state) {
  // One TFMCC data packet per iteration from the hub of an n-leaf star to
  // n real TfmccReceivers (a TfmccFlow, so receivers, links and queues sit
  // where a scenario puts them): the fan-out, each leaf link's jitter draw,
  // and each receiver's per-packet work with its goodput binner.  Every
  // 100th packet is lost upstream and every 256th opens a feedback round,
  // whose timer draws build every receiver's RNG engine.  Unlike
  // BM_MulticastFanout's stateless sink, this sees the per-host memory
  // footprint.  Items are deliveries; ns_per_delivery is the time per one.
  const int n = static_cast<int>(state.range(0));
  Simulator sim{11};
  Topology topo{sim};
  LinkConfig link;
  link.rate_bps = 1e9;
  link.delay = SimTime::millis(1);
  link.jitter = SimTime::micros(20);
  const Star star = make_star(topo, link, std::vector<LinkConfig>(n, link));
  TfmccFlow flow{sim, topo, star.hub};
  for (NodeId leaf : star.leaves) flow.add_joined_receiver(leaf);
  std::int64_t seqno = 0;
  for (auto _ : state) {
    if (seqno % 100 == 99) ++seqno;  // lost upstream
    auto p = sim.make_packet();
    p->src = star.hub;
    p->group = flow.session().group();
    p->dport = flow.session().data_port();
    p->size_bytes = kDataPacketBytes;
    TfmccDataHeader h;
    h.seqno = seqno;
    h.round = static_cast<std::int32_t>(seqno / 256);
    h.send_rate_Bps = 1.25e6;
    h.send_ts = sim.now();
    h.fb_deadline = SimTime::seconds(2.0);
    p->header = h;
    flow.session().send_from_source(p);
    ++seqno;
    sim.run_until(sim.now() + SimTime::millis(2));
    benchmark::DoNotOptimize(flow.receiver(n - 1).packets_received());
  }
  const auto deliveries = static_cast<double>(state.iterations()) * n;
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["ns_per_delivery"] = benchmark::Counter(
      deliveries, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReceiverFanout)->Arg(200)->Arg(1000)->Arg(4000);

}  // namespace

BENCHMARK_MAIN();
