// Decision-level equivalence of the two receiver tiers: a full TfmccReceiver
// and a one-receiver ModeledReceiverBlock (same id, no virtual detour), each
// in its own Simulator with the same seeds, replay the same seeded script of
// crafted data headers.  The reports reaching the source must be identical:
// arrival time and every header field, so every eligibility, bias, §2.5.2
// suppression, CLR and report-content decision agrees.
//
// The script keeps to the conditions under which the tiers are specified to
// agree (see ReceiverCore), each of which names a modelling difference:
//   - rtt_ewma_owd = 0: the block has no §2.4.3 one-way-delay adjustment.
//   - Losses, RTT echoes and CLR changes only on a round's first packet, and
//     the echoed rate only falls within a round: the block applies §2.5.2
//     once at fire time against the round's latest echo, the full receiver
//     to every packet, so they agree while the receiver's own rate is fixed
//     over the round (the open loss interval only raises it) and the rule
//     is monotone in the echoed rate.
//   - Slowstart echoes are decided by §2.6's loss dominance (the echo's
//     has_loss is the opposite of the receiver's), never by the receive-rate
//     arm: the receive rate moves with every packet.
//   - No leave: the block sends leave reports only for receivers the sender
//     has heard from; the full receiver always sends one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mcast/session.hpp"
#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/receiver.hpp"
#include "tfmcc/receiver_block.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

using namespace tfmcc::time_literals;

constexpr int kSeeds = 200;
constexpr int kRounds = 60;
constexpr std::int32_t kId = 100;
constexpr std::int32_t kOtherId = 7;

struct ScriptedPacket {
  SimTime at;  // arrival at the receiver
  TfmccDataHeader h;
};

std::vector<ScriptedPacket> make_script(std::uint64_t seed) {
  Rng gen{seed};
  std::vector<ScriptedPacket> out;
  SimTime t = 100_ms;
  std::int64_t seqno = 0;
  bool had_loss = false;
  const auto slowstart_rounds = gen.uniform_int(0, 10);
  for (int round = 1; round <= kRounds; ++round) {
    const bool slowstart = round <= slowstart_rounds;
    const SimTime fb_deadline = SimTime::seconds(gen.uniform(0.3, 2.0));
    const double send_rate = std::exp(gen.uniform(std::log(2e3), std::log(2e6)));
    const double u_clr = gen.uniform01();
    const std::int32_t clr =
        u_clr < 0.2 ? kId : (u_clr < 0.4 ? kOtherId : kInvalidReceiver);
    const auto packets = gen.uniform_int(3, 40);
    const SimTime gap = fb_deadline * (gen.uniform(0.7, 1.4) /
                                       static_cast<double>(packets));
    double supp = -1.0;
    bool supp_has_loss = false;
    for (std::int64_t k = 0; k < packets; ++k) {
      TfmccDataHeader h;
      // A loss burst; none before the first packet, which the receiver
      // could not see.
      if (k == 0 && !out.empty() && gen.bernoulli(0.3)) {
        seqno += gen.uniform_int(1, 4);
        had_loss = true;
      }
      const bool duplicate = k > 0 && gen.bernoulli(0.03);
      h.seqno = duplicate ? seqno - 1 : seqno++;
      h.send_ts = t - SimTime::seconds(gen.uniform(0.005, 0.1));
      h.send_rate_Bps = send_rate;
      h.clr = clr;
      h.slowstart = slowstart;
      h.round = round;
      h.fb_deadline = fb_deadline;
      if (k == 0 && gen.bernoulli(0.3)) {
        h.echo.receiver = gen.bernoulli(0.8) ? kId : kOtherId;
        h.echo.delay = SimTime::seconds(gen.uniform(0.0, 0.05));
        h.echo.ts = t - h.echo.delay - SimTime::seconds(gen.uniform(0.02, 0.4));
      }
      if (k > 0 && gen.bernoulli(0.15)) {
        const double echoed = send_rate * gen.uniform(0.05, 1.2);
        supp = supp < 0.0 ? echoed : std::min(supp, echoed);
        supp_has_loss = slowstart ? !had_loss : gen.bernoulli(0.5);
      }
      h.supp_rate_Bps = supp;
      h.supp_has_loss = supp_has_loss;
      out.push_back({t, h});
      t += gap;
    }
  }
  return out;
}

struct Report {
  SimTime at;  // arrival at the source
  TfmccFeedbackHeader h;
};

bool operator==(const Report& a, const Report& b) {
  return a.at == b.at && a.h.receiver == b.h.receiver &&
         a.h.round == b.h.round && a.h.calc_rate_Bps == b.h.calc_rate_Bps &&
         a.h.recv_rate_Bps == b.h.recv_rate_Bps &&
         a.h.loss_event_rate == b.h.loss_event_rate &&
         a.h.has_rtt == b.h.has_rtt && a.h.rtt == b.h.rtt &&
         a.h.has_loss == b.h.has_loss && a.h.leaving == b.h.leaving &&
         a.h.ts == b.h.ts && a.h.echo_ts == b.h.echo_ts &&
         a.h.echo_delay == b.h.echo_delay;
}

std::string describe(const Report& r) {
  std::ostringstream os;
  os.precision(17);
  os << "at=" << r.at.count_nanos() << "ns round=" << r.h.round
     << " calc=" << r.h.calc_rate_Bps << " recv=" << r.h.recv_rate_Bps
     << " p=" << r.h.loss_event_rate << " has_rtt=" << r.h.has_rtt
     << " rtt=" << r.h.rtt.count_nanos() << "ns has_loss=" << r.h.has_loss
     << " echo_delay=" << r.h.echo_delay.count_nanos() << "ns";
  return os.str();
}

/// Records every report that reaches the source's control port.
class Capture final : public Agent {
 public:
  explicit Capture(Simulator& sim) : sim_{sim} {}
  void handle_packet(const Packet& p) override {
    if (const auto* h = p.tfmcc_feedback()) reports.push_back({sim_.now(), *h});
  }
  std::vector<Report> reports;

 private:
  Simulator& sim_;
};

/// One star (sender, hub, one leaf) with a capture agent on the source.
struct Bed {
  explicit Bed(std::uint64_t seed) : sim{seed}, topo{sim}, capture{sim} {
    LinkConfig link;
    link.rate_bps = 1e9;
    link.delay = 1_ms;
    star = make_star(topo, link, {link});
    session = std::make_unique<MulticastSession>(topo, star.sender,
                                                 kTfmccDataPort);
    topo.node(star.sender).attach_agent(session->control_port(), &capture);
  }

  std::vector<Report> replay(Agent& rx,
                             const std::vector<ScriptedPacket>& script) {
    for (const ScriptedPacket& sp : script) {
      sim.run_until(sp.at);
      Packet p;
      p.uid = sim.next_uid();
      p.src = star.sender;
      p.group = session->group();
      p.dport = kTfmccDataPort;
      p.size_bytes = kDataPacketBytes;
      p.header = sp.h;
      rx.handle_packet(p);
    }
    sim.run_until(script.back().at + 5_sec);
    return capture.reports;
  }

  Simulator sim;
  Topology topo;
  Star star;
  std::unique_ptr<MulticastSession> session;
  Capture capture;
};

std::vector<Report> run_full(const std::vector<ScriptedPacket>& script,
                             std::uint64_t seed, const TfmccConfig& cfg) {
  Bed bed{seed};
  TfmccReceiver rx{bed.sim, *bed.session, bed.star.leaves[0], kId, cfg,
                   bed.sim.make_rng(66)};
  rx.join();
  return bed.replay(rx, script);
}

std::vector<Report> run_block(const std::vector<ScriptedPacket>& script,
                              std::uint64_t seed, const TfmccConfig& cfg) {
  Bed bed{seed};
  ModeledReceiverBlock::BlockConfig bc;
  bc.count = 1;
  bc.base_id = kId;
  ModeledReceiverBlock rx{bed.sim, *bed.session, bed.star.leaves[0], bc, cfg,
                          bed.sim.make_rng(66)};
  rx.join();
  return bed.replay(rx, script);
}

void expect_identical_reports(bool clock_sync) {
  TfmccConfig cfg;
  cfg.rtt_ewma_owd = 0.0;
  cfg.use_clock_sync = clock_sync;
  int diverged = 0;
  std::string first;
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto script = make_script(seed);
    const auto full = run_full(script, seed, cfg);
    const auto block = run_block(script, seed, cfg);
    total += full.size();
    if (full == block) continue;
    ++diverged;
    if (!first.empty()) continue;
    std::ostringstream os;
    os << "seed " << seed << ": full sent " << full.size() << ", block sent "
       << block.size();
    for (std::size_t i = 0; i < std::min(full.size(), block.size()); ++i) {
      if (full[i] == block[i]) continue;
      os << "; first difference at report " << i << "\n  full:  "
         << describe(full[i]) << "\n  block: " << describe(block[i]);
      break;
    }
    first = os.str();
  }
  EXPECT_EQ(diverged, 0) << first;
  // The scripts exercise reporting, not just silence.
  EXPECT_GT(total, static_cast<std::size_t>(kSeeds) * 10);
}

TEST(TierEquivalence, IdenticalReportsWithoutClockSync) {
  expect_identical_reports(false);
}

TEST(TierEquivalence, IdenticalReportsWithClockSync) {
  expect_identical_reports(true);
}

}  // namespace
}  // namespace tfmcc
