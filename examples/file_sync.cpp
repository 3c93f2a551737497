// Multicast file-tree synchronisation (the paper's own planned deployment:
// "a multicast filesystem synchronization application (e.g. rdist)", §6.1).
//
// A build server pushes an update bundle to a fleet of mirrors.  TFMCC
// provides the congestion-controlled rate; this example layers a trivial
// carousel (repeat the object until every receiver has every block) on
// top and reports completion times — the metric a distribution tool cares
// about — plus how the one slow mirror dominates the tail.
//
//   $ ./examples/file_sync [seed]

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "example_args.hpp"
#include "net/builders.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/flow.hpp"

namespace {

using namespace tfmcc;

/// Tracks which carousel blocks a mirror has; data packets carry the block
/// id in their seqno (seqno % blocks).
class MirrorState {
 public:
  explicit MirrorState(int blocks) : blocks_{blocks} {}

  void on_packet(std::int64_t seqno, SimTime now) {
    if (complete()) return;
    have_.insert(seqno % blocks_);
    if (complete()) completed_at_ = now;
  }
  bool complete() const { return static_cast<int>(have_.size()) == blocks_; }
  SimTime completed_at() const { return completed_at_; }
  int have() const { return static_cast<int>(have_.size()); }

 private:
  int blocks_;
  std::set<std::int64_t> have_;
  SimTime completed_at_{SimTime::infinity()};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tfmcc::time_literals;

  examples::check_arg_count(argc, argv, 1, "[seed]");
  const std::uint64_t seed = examples::arg_or(argc, argv, 1, "seed", 5);
  const int kMirrors = 12;
  const int kBlocks = 2000;  // 2000 x 1000 B = ~2 MB bundle

  Simulator sim{seed};
  Topology topo{sim};
  LinkConfig trunk;
  trunk.rate_bps = 100e6;
  trunk.delay = 5_ms;
  std::vector<LinkConfig> mirror_links(kMirrors);
  Rng cfg_rng{seed + 1};
  for (int i = 0; i < kMirrors; ++i) {
    auto& l = mirror_links[static_cast<size_t>(i)];
    l.rate_bps = 10e6;
    l.delay = SimTime::millis(cfg_rng.uniform_int(5, 40));
    l.loss_rate = 0.0005;
  }
  // One overseas mirror on a thin, lossy path: the tail of the fleet.
  mirror_links.back().rate_bps = 1e6;
  mirror_links.back().delay = 120_ms;
  mirror_links.back().loss_rate = 0.01;
  const Star star = make_star(topo, trunk, mirror_links);

  TfmccFlow flow{sim, topo, star.sender};
  std::vector<MirrorState> mirrors(static_cast<size_t>(kMirrors),
                                   MirrorState{kBlocks});
  for (int i = 0; i < kMirrors; ++i) {
    const int id = flow.add_joined_receiver(star.leaves[static_cast<size_t>(i)]);
    // The carousel state is applicative: glue it to the delivery stream.
    auto* mirror = &mirrors[static_cast<size_t>(i)];
    flow.receiver(id).set_data_observer(
        [mirror](SimTime t, const TfmccDataHeader& h) {
          mirror->on_packet(h.seqno, t);
        });
  }

  flow.sender().start(SimTime::zero());
  // Run until every mirror completes (or a generous cap).
  while (sim.now() < 1200_sec &&
         !std::all_of(mirrors.begin(), mirrors.end(),
                      [](const MirrorState& m) { return m.complete(); })) {
    sim.run_until(sim.now() + 1_sec);
  }

  std::printf("bundle: %d blocks (%d kB); fleet of %d mirrors\n", kBlocks,
              kBlocks, kMirrors);
  std::vector<double> times;
  for (int i = 0; i < kMirrors; ++i) {
    const auto& m = mirrors[static_cast<size_t>(i)];
    if (m.complete()) {
      times.push_back(m.completed_at().to_seconds());
      std::printf("  mirror %2d: complete at %7.1f s\n", i,
                  m.completed_at().to_seconds());
    } else {
      std::printf("  mirror %2d: INCOMPLETE (%d/%d blocks)\n", i, m.have(),
                  kBlocks);
    }
  }
  if (!times.empty()) {
    std::printf("median completion %.1f s, p100 %.1f s\n",
                quantile(times, 0.5), quantile(times, 1.0));
  }
  std::printf("sender rate at end: %.0f kbit/s (CLR = mirror %d, the thin "
              "overseas path)\n",
              kbps_from_Bps(flow.sender().rate_Bps()), flow.sender().clr());
  return 0;
}
