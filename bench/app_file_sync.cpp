// Multicast file-tree synchronisation (the paper's own planned deployment:
// "a multicast filesystem synchronization application (e.g. rdist)", §6.1).
//
// A build server pushes an update bundle to a fleet of mirrors.  TFMCC
// provides the congestion-controlled rate; this scenario layers a trivial
// carousel (repeat the object until every receiver has every block) on
// top and reports completion times — the metric a distribution tool cares
// about — plus how the one slow mirror dominates the tail.  The run stops
// once every mirror is complete, or at the --duration cap.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "scenario_util.hpp"

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

TFMCC_SCENARIO(app_file_sync,
               "Multicast file sync: a carousel bundle to 12 mirrors, one "
               "on a thin overseas path") {
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "App: file sync",
                       "rdist-style bundle push to a mirror fleet");
  const SimTime cap = opts.duration_or(1200_sec);
  const std::uint64_t seed = opts.seed_or(5);
  const int kMirrors = 12;
  const int kBlocks = 2000;  // 2000 x 1000 B = ~2 MB bundle

  Simulator sim{seed};
  Topology topo{sim};
  LinkConfig trunk;
  trunk.rate_bps = 100e6;
  trunk.delay = 5_ms;
  std::vector<LinkConfig> mirror_links(kMirrors);
  Rng cfg_rng{seed + 1};
  for (auto& l : mirror_links) {
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
  const auto all_complete = [&mirrors] {
    return std::all_of(mirrors.begin(), mirrors.end(),
                       [](const MirrorState& m) { return m.complete(); });
  };
  while (sim.now() < cap && !all_complete()) {
    sim.run_until(std::min(sim.now() + 1_sec, cap));
  }

  CsvWriter csv(opts.out(), {"mirror", "complete", "completed_s", "blocks"});
  std::vector<double> times;
  for (int i = 0; i < kMirrors; ++i) {
    const auto& m = mirrors[static_cast<size_t>(i)];
    const double at = m.complete() ? m.completed_at().to_seconds() : -1.0;
    if (m.complete()) times.push_back(at);
    csv.row(i, m.complete() ? 1 : 0, at, m.have());
  }

  bench::note(opts.out(), "bundle: " + std::to_string(kBlocks) +
                              " blocks (" + std::to_string(kBlocks) +
                              " kB); fleet of " + std::to_string(kMirrors) +
                              " mirrors");
  if (!times.empty()) {
    bench::note(opts.out(), "median completion " +
                                std::to_string(quantile(times, 0.5)) +
                                " s, p100 " +
                                std::to_string(quantile(times, 1.0)) + " s");
  }
  const std::int32_t clr = flow.sender().clr();
  bench::note(opts.out(),
              "sender rate at end: " +
                  std::to_string(kbps_from_Bps(flow.sender().rate_Bps())) +
                  " kbit/s (CLR = mirror " + std::to_string(clr) + ")");

  bench::check(opts.out(), all_complete(),
               "every mirror completes the bundle before the cap");
  bench::check(opts.out(), clr == kMirrors - 1,
               "the final CLR is the thin overseas mirror");
  return 0;
}
