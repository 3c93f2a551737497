// Video streaming under viewer churn.
//
// The paper motivates TFMCC with applications needing a smooth, predictable
// rate — streaming media being the canonical case (§1.1, §5).  A "video"
// stream feeds a heterogeneous receiver set (campus, cable, DSL); a
// congested mobile viewer joins mid-session and leaves again, possibly
// repeatedly (`churn_cycles`), dragging the CLR and the whole group's rate
// down while present.  The report shows what an adaptive codec would see:
// per-phase mean rate, coefficient of variation, and the video layer the
// rate sustains.

#include <string>
#include <vector>

#include "scenario_util.hpp"

namespace {

constexpr double kLayerKbps[] = {128.0, 256.0, 512.0, 1024.0, 2048.0};

int layer_for(double kbps) {
  int layer = -1;
  for (int i = 0; i < 5; ++i) {
    if (kbps >= kLayerKbps[i]) layer = i;
  }
  return layer;
}

}  // namespace

TFMCC_SCENARIO(
    app_video_churn,
    "Video streaming with a congested mobile viewer joining and leaving",
    tfmcc::param("mobile_kbps", 600.0, "mobile access link rate", 10.0),
    tfmcc::param("mobile_loss", 0.01, "mobile access link loss rate", 0.0),
    tfmcc::param("churn_cycles", 1,
                 "mobile join/leave cycles within the churn window", 1.0),
    tfmcc::bench::equation_backend_param()) {
  using namespace tfmcc;
  using namespace tfmcc::time_literals;

  bench::figure_header(opts.out(), "App: video churn",
                       "Streaming rate under mobile-viewer churn");

  const EquationBackend* eq = bench::selected_equation_backend(opts);
  if (eq == nullptr) return 2;
  const double mobile_kbps = opts.param_or("mobile_kbps", 600.0);
  const double mobile_loss = opts.param_or("mobile_loss", 0.01);
  const int cycles = opts.param_or("churn_cycles", 1);
  TfmccConfig cfg;
  cfg.equation = eq;

  // Reference timeline (the example's): fixed receivers only over [0, 120),
  // the churn window [120, 360) split into `churn_cycles` join/leave
  // cycles — the mobile viewer is present for the first half of each cycle.
  const SimTime kRefT = 360_sec;
  const SimTime T = opts.duration_or(kRefT);
  Simulator sim{opts.seed_or(3)};
  Topology topo{sim};

  LinkConfig trunk;
  trunk.rate_bps = 100e6;
  trunk.delay = 5_ms;
  LinkConfig campus;  // fast and clean
  campus.rate_bps = 20e6;
  campus.delay = 10_ms;
  LinkConfig cable;
  cable.rate_bps = 6e6;
  cable.delay = 15_ms;
  cable.loss_rate = 0.001;
  LinkConfig dsl;
  dsl.rate_bps = 2e6;
  dsl.delay = 25_ms;
  dsl.loss_rate = 0.002;
  LinkConfig mobile;  // the churning viewer
  mobile.rate_bps = mobile_kbps * 1e3;
  mobile.delay = 60_ms;
  mobile.loss_rate = mobile_loss;
  const Star star = make_star(topo, trunk, {campus, cable, dsl, mobile});

  TfmccFlow stream{sim, topo, star.sender, cfg};
  for (int i = 0; i < 3; ++i) {
    stream.add_joined_receiver(star.leaves[static_cast<size_t>(i)]);
  }
  const int mobile_id = stream.add_receiver(star.leaves[3]);

  stream.sender().start(SimTime::zero());
  ScheduleBuilder sched{sim, kRefT, T};
  const double cycle_s = 240.0 / static_cast<double>(cycles);
  for (int c = 0; c < cycles; ++c) {
    const double t0 = 120.0 + cycle_s * static_cast<double>(c);
    sched.at(SimTime::seconds(t0),
             [&stream, mobile_id] { stream.receiver(mobile_id).join(); });
    sched.at(SimTime::seconds(t0 + cycle_s / 2.0),
             [&stream, mobile_id] { stream.receiver(mobile_id).leave(); });
  }
  sim.run_until(T);

  CsvWriter csv(opts.out(), {"flow", "time_s", "kbps"});
  bench::emit_series(csv, "video", stream.goodput(0), 0_sec, T);

  // Phase statistics on the first cycle, as an adaptive encoder would see
  // them (windows warp with the schedule).
  const auto w = [&sched](double s) {
    return sched.warped(SimTime::seconds(s));
  };
  struct Phase {
    const char* name;
    SimTime from, to;
  };
  const Phase phases[] = {
      {"fixed receivers only", w(30), w(120)},
      {"mobile viewer joined", w(120.0 + cycle_s * 0.1),
       w(120.0 + cycle_s / 2.0)},
      {"mobile viewer left", w(120.0 + cycle_s * 0.6), w(120.0 + cycle_s)},
  };
  std::vector<double> means;
  for (const auto& ph : phases) {
    summary::Welford stats;
    int flips = 0, last_layer = -2;
    for (const auto& p : stream.goodput(0).series_kbps().points()) {
      if (p.t < ph.from || p.t >= ph.to) continue;
      stats.add(p.v);
      const int layer = layer_for(p.v);
      if (last_layer != -2 && layer != last_layer) ++flips;
      last_layer = layer;
    }
    means.push_back(stats.mean());
    bench::note(opts.out(),
                std::string(ph.name) + ": mean=" + std::to_string(stats.mean()) +
                    " kbit/s cov=" + std::to_string(stats.cov()) +
                    " layer_flips=" + std::to_string(flips) +
                    " layer=" + std::to_string(layer_for(stats.mean())));
  }
  bench::note(opts.out(),
              "CLR changes over the run: " +
                  std::to_string(stream.sender().clr_history().size()));
  bench::note(opts.out(),
              "feedback messages total: " +
                  std::to_string(stream.total_feedback_sent()));
  bench::note_schedule(opts.out(), sched);

  bench::check(opts.out(), means[1] < means[0],
               "the mobile viewer drags the stream rate down while present");
  bench::check(opts.out(), means[2] > means[1],
               "the rate recovers after the mobile viewer leaves");
  bench::check(opts.out(), layer_for(means[1]) <= layer_for(means[0]),
               "the sustainable video layer drops with the mobile viewer");
  return 0;
}
