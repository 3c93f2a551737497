// The unified scenario driver.  Every figure/ablation/comparison bench in
// this directory registers itself with the ScenarioRegistry; this binary
// links them all and dispatches by name:
//
//   $ tfmcc_sim --list
//   $ tfmcc_sim fig09_single_bottleneck --duration 5 --seed 7
//   $ tfmcc_sim fig09_single_bottleneck --set n_tcp=4 --set bottleneck_bps=2e6
//   $ tfmcc_sim sweep fig07_scaling --sweep n_receivers=2:2000:log6 --jobs 4
//   $ tfmcc_sim sweep fig07_scaling --sweep n_receivers=2:2000:log6
//         --replicate 5 --stats mean,cov --jobs 4
//
// A scenario run's output depends only on its options, and a sweep's
// aggregate CSV does not depend on `--jobs`.

#include <cstring>
#include <iostream>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: tfmcc_sim --list\n"
        "       tfmcc_sim <scenario> [--duration <seconds>] [--seed <n>]\n"
        "                            [--set key=value]... [--output <path>]\n"
        "       tfmcc_sim sweep <scenario> --sweep key=v1,v2,...\n"
        "                       [--sweep key=lo:hi:linN|logN]... [--jobs N]\n"
        "                       [--replicate N] [--stats mean,cov,...] [--progress]\n"
        "                       [--checkpoint <path>] [--checkpoint-every N]\n"
        "                       [--resume <path>] [single-run flags]\n"
        "`--list` shows each scenario's tunable parameters with their paper\n"
        "defaults; `--set` overrides them.  Scenarios with scripted event\n"
        "schedules rescale the script proportionally under --duration.\n"
        "`sweep` runs one scenario over a parameter grid (points in\n"
        "parallel under --jobs) and aggregates the per-point CSVs into one\n"
        "table with the swept keys prepended, rows in grid order.\n"
        "`--replicate N` runs every grid point N times on derived seeds\n"
        "and emits one summary row per point (mean/cov/... columns per the\n"
        "--stats selection plus n_rep); `--progress` forces the throttled\n"
        "progress/ETA line stderr TTYs get by default.\n"
        "`--checkpoint`/`--resume` make a killed sweep restartable with\n"
        "byte-identical output.\n"
        "Any failed run fails the sweep.\n";
}

void print_list() {
  const auto& reg = tfmcc::ScenarioRegistry::instance();
  for (const auto& name : reg.names()) {
    const tfmcc::Scenario* s = reg.find(name);
    std::cout << name << "\t" << s->description << "\n";
    for (const auto& p : s->params) {
      std::cout << "  --set " << p.name << "=" << p.default_value << "\t("
                << tfmcc::param_type_name(p.type) << ") " << p.description
                << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string_view cmd = argv[1];
  if (cmd == "--list" || cmd == "-l") {
    print_list();
    return 0;
  }
  if (cmd == "--help" || cmd == "-h") {
    print_usage(std::cout);
    print_list();
    return 0;
  }

  if (cmd == "sweep") {
    return tfmcc::sweep_main(argc - 2, argv + 2, std::cerr);
  }

  // The name is checked before its flags, so a mistyped or removed
  // subcommand is reported as an unknown scenario with the known ones listed.
  tfmcc::ScenarioOptions opts;
  if (tfmcc::ScenarioRegistry::instance().find(cmd) == nullptr) {
    tfmcc::ScenarioRegistry::instance().run(cmd, opts, std::cerr);
    return 2;
  }
  if (!tfmcc::parse_scenario_options(argc - 2, argv + 2, opts, std::cerr)) {
    return 2;
  }
  const int rc = tfmcc::run_scenario_cli(cmd, opts, std::cerr);
  return rc < 0 ? 2 : rc;
}
