#!/usr/bin/env python3
"""Hot-path performance report: micro benchmarks + scenario wall-clocks.

Measures the simulator's perf trajectory and writes/updates the
``BENCH_hotpath.json`` tracked at the repo root:

* micro benchmarks (google-benchmark, ``BM_SchedulerChurn`` and friends)
  reported as ns/op and items/s (``BM_MulticastFanout`` also as ns per
  delivered copy);
* wall-clock runs of the heavyweight paper scenarios — fig07 (full
  Monte-Carlo ladder), fig12 and fig13 (both dominated by the
  1000-receiver packet simulations) — best-of-N to shed scheduler noise.

Usage:
  tools/perf_report.py --build-dir build                 # measure, update "current"
  tools/perf_report.py --build-dir build --label NAME    # ... with a custom label
  tools/perf_report.py --build-dir build --set-baseline  # measure into "baseline"
  tools/perf_report.py --build-dir build \
      --check BENCH_hotpath.json --tolerance 0.25        # CI: fail on regression

The JSON keeps two measurement sets: ``baseline`` (the pre-optimisation
reference, captured once per perf PR from the pre-PR tree) and
``current`` (the tree as committed).  Perf PRs must refresh both — see
README "Performance".  ``--check`` re-measures the working tree and fails
when any scenario wall-clock is more than ``--tolerance`` (default 25%)
slower than the committed ``current`` entry, or any micro benchmark is
more than ``--micro-tolerance`` (default 60%) slower ns/op — both after
machine-speed normalisation.
"""

import argparse
import json
import os
import subprocess
import sys
import time

SCENARIOS = [
    # (entry name, scenario, extra args) — defaults reproduce the paper
    # figures: fig07 runs the full receiver ladder, fig12/fig13 include the
    # 1000-receiver configurations that dominate full-duration CI runs.
    ("fig07_scaling_full_ladder", "fig07_scaling", []),
    ("fig12_rtt_acquisition_1000rx", "fig12_rtt_acquisition", []),
    ("fig13_rtt_change_1000rx", "fig13_rtt_change", []),
    # Large-n legs of the hybrid full/model receiver tier: the fig07 ladder
    # extended to n = 10^5 (analytic Monte-Carlo), and the fig12-class
    # packet simulation at 10^5 receivers on modeled SoA blocks — the
    # regression probe for the batched fan-out path.
    ("fig07_scaling_100k_ladder", "fig07_scaling",
     ["--set", "n_max=100000"]),
    ("scale_hybrid_100k", "scale_hybrid_receivers", []),
    # Dynamic-membership stress: 2000 receivers, >10k join/leave events on
    # the incremental graft/prune path — the wall-clock regression probe for
    # membership maintenance (BM_MembershipChurn gates the per-event cost).
    ("churn_flash_crowd_2000rx", "churn_flash_crowd", []),
]

MICRO_FILTER = ("BM_SchedulerChurn|BM_EquationFull|BM_EquationInverse|"
                "BM_EquationBatch|BM_LossHistoryReceive|BM_MembershipChurn|"
                "BM_PacketPoolChurn|BM_FeedbackTimerDraw|BM_FeedbackRound|"
                "BM_ModeledBlockRound|BM_MulticastFanout|BM_ComputeRoutes")


def run_micro(build_dir, min_time):
    """Runs the google-benchmark suite, returns {name: {ns_per_op, items_per_s}}."""
    binary = os.path.join(build_dir, "bench", "micro_benchmarks")
    if not os.path.exists(binary):
        print(f"perf_report: {binary} not built (google-benchmark missing?); "
              "skipping micro benchmarks", file=sys.stderr)
        return {}
    out_json = os.path.join(build_dir, "perf_report_micro.json")
    base = [binary, f"--benchmark_filter={MICRO_FILTER}",
            f"--benchmark_out={out_json}", "--benchmark_out_format=json"]
    # Older google-benchmark rejects the unit-suffixed min_time spelling.
    for min_time_arg in (f"--benchmark_min_time={min_time}s",
                         f"--benchmark_min_time={min_time}"):
        try:
            subprocess.run(base + [min_time_arg], check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            break
        except subprocess.CalledProcessError:
            continue
    else:
        print("perf_report: micro benchmark run failed", file=sys.stderr)
        return {}
    with open(out_json) as f:
        data = json.load(f)
    metrics = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        entry = {"ns_per_op": round(bench["real_time"], 3)}
        if "items_per_second" in bench:
            entry["items_per_s"] = round(bench["items_per_second"])
        if "ns_per_copy" in bench:  # an inverted rate counter, in seconds
            entry["ns_per_copy"] = round(bench["ns_per_copy"] * 1e9, 3)
        metrics[name] = entry
    return metrics


def run_scenarios(build_dir, repeats):
    """Times each scenario end to end; best-of-N wall-clock seconds."""
    binary = os.path.join(build_dir, "bench", "tfmcc_sim")
    if not os.path.exists(binary):
        sys.exit(f"perf_report: {binary} not built")
    metrics = {}
    for entry_name, scenario, extra in SCENARIOS:
        best = None
        for _ in range(repeats):
            t0 = time.monotonic()
            subprocess.run([binary, scenario, "--output", os.devnull, *extra],
                           check=True)
            dt = time.monotonic() - t0
            best = dt if best is None else min(best, dt)
        metrics[entry_name] = {"wall_s": round(best, 3), "best_of": repeats}
        print(f"perf_report: {entry_name}: {best:.2f} s (best of {repeats})")
    return metrics


def load_report(path):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {"schema": "tfmcc-hotpath-bench/1", "unit_notes": {
        "wall_s": "end-to-end scenario wall-clock, best-of-N, seconds",
        "ns_per_op": "google-benchmark real time per operation",
    }}


def check(report, fresh_scenarios, tolerance):
    """Compares fresh wall-clocks against the committed 'current' set.

    The committed numbers come from whatever machine last ran perf_report,
    so raw cross-machine wall-clocks are not comparable.  The gate therefore
    normalises by the smallest measured/committed ratio across scenarios —
    the least-changed scenario acts as the machine-speed proxy (fig07 is
    analytic and insensitive to the packet hot path, so a genuine hot-path
    regression shows up as a spread between scenarios, while a uniformly
    slower runner shifts every ratio together and is factored out).
    """
    committed = report.get("current", {}).get("scenarios", {})
    if not committed:
        sys.exit("perf_report: --check needs a committed 'current' "
                 "measurement set in the report")
    missing = sorted(set(fresh_scenarios) - set(committed))
    if missing:
        sys.exit("perf_report: measured scenarios missing from the committed "
                 f"report (re-run perf_report and commit it): "
                 f"{', '.join(missing)}")
    ratios = {}
    for name, fresh in fresh_scenarios.items():
        old = committed[name]["wall_s"]
        ratios[name] = fresh["wall_s"] / old if old > 0 else float("inf")
    scale = min(ratios.values())
    failures = []
    for name, ratio in sorted(ratios.items()):
        normalised = ratio / scale if scale > 0 else float("inf")
        status = "OK" if normalised <= 1.0 + tolerance else "REGRESSION"
        print(f"perf_report: {name}: committed "
              f"{committed[name]['wall_s']:.2f}s, measured "
              f"{fresh_scenarios[name]['wall_s']:.2f}s "
              f"({ratio:.2f}x raw, {normalised:.2f}x machine-normalised) "
              f"{status}")
        if normalised > 1.0 + tolerance:
            failures.append(name)
    if failures:
        sys.exit(f"perf_report: wall-clock regression beyond "
                 f"{tolerance:.0%} tolerance: {', '.join(failures)}")
    print(f"perf_report: all scenario wall-clocks within {tolerance:.0%} "
          "of the committed baseline (machine-normalised)")


def check_micro(report, fresh_micro, tolerance):
    """Gates micro-benchmark ns/op against the committed 'current' set.

    Same machine-normalisation idea as the scenario gate: the
    least-regressed benchmark is taken as the machine-speed proxy, so a
    uniformly slower runner passes while one benchmark regressing relative
    to its peers fails.  Micro benchmarks are noisier than wall-clocks
    (frequency scaling, cache state), so callers pass a looser tolerance.
    Benchmarks missing from the committed set are reported but don't fail
    the gate — a freshly added bench only gates once it has been committed
    via a perf_report refresh.
    """
    committed = report.get("current", {}).get("micro", {})
    if not fresh_micro:
        print("perf_report: no micro benchmarks measured; skipping micro gate")
        return
    if not committed:
        print("perf_report: committed report has no micro set; "
              "skipping micro gate")
        return
    common = sorted(set(fresh_micro) & set(committed))
    for name in sorted(set(fresh_micro) - set(committed)):
        print(f"perf_report: {name}: not in committed report (new bench, "
              "not gated)")
    if not common:
        print("perf_report: no overlapping micro benchmarks; "
              "skipping micro gate")
        return
    ratios = {}
    for name in common:
        old = committed[name]["ns_per_op"]
        ratios[name] = (fresh_micro[name]["ns_per_op"] / old
                        if old > 0 else float("inf"))
    scale = min(ratios.values())
    failures = []
    for name, ratio in sorted(ratios.items()):
        normalised = ratio / scale if scale > 0 else float("inf")
        status = "OK" if normalised <= 1.0 + tolerance else "REGRESSION"
        print(f"perf_report: {name}: committed "
              f"{committed[name]['ns_per_op']:.1f} ns/op, measured "
              f"{fresh_micro[name]['ns_per_op']:.1f} ns/op "
              f"({ratio:.2f}x raw, {normalised:.2f}x machine-normalised) "
              f"{status}")
        if normalised > 1.0 + tolerance:
            failures.append(name)
    if failures:
        sys.exit(f"perf_report: micro benchmark regression beyond "
                 f"{tolerance:.0%} tolerance: {', '.join(failures)}")
    print(f"perf_report: all micro benchmarks within {tolerance:.0%} "
          "of the committed baseline (machine-normalised)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--output", default="BENCH_hotpath.json",
                    help="report path (default: BENCH_hotpath.json)")
    ap.add_argument("--label", default=None,
                    help="label recorded with the measurement set")
    ap.add_argument("--set-baseline", action="store_true",
                    help="write the measurements into 'baseline' instead of "
                         "'current'")
    ap.add_argument("--repeats", type=int, default=3,
                    help="scenario repetitions, best-of (default 3)")
    ap.add_argument("--min-time", type=float, default=0.5,
                    help="google-benchmark min time per bench, seconds")
    ap.add_argument("--check", metavar="REPORT",
                    help="compare a fresh measurement against REPORT's "
                         "'current' set and fail on regression; does not "
                         "write anything")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional wall-clock slowdown for --check "
                         "(default 0.25)")
    ap.add_argument("--micro-tolerance", type=float, default=0.60,
                    help="allowed fractional ns/op slowdown for --check's "
                         "micro gate; looser than the scenario gate because "
                         "ns-scale benches are noisier (default 0.60)")
    args = ap.parse_args()

    scenarios = run_scenarios(args.build_dir, args.repeats)
    micro = run_micro(args.build_dir, args.min_time)

    if args.check:
        report = load_report(args.check)
        check(report, scenarios, args.tolerance)
        check_micro(report, micro, args.micro_tolerance)
        return

    report = load_report(args.output)
    report.setdefault("unit_notes", {}).setdefault(
        "ns_per_copy", "google-benchmark real time per delivered multicast copy")
    measurement = {
        "label": args.label or ("baseline" if args.set_baseline else "current"),
        "scenarios": scenarios,
        "micro": micro,
    }
    report["baseline" if args.set_baseline else "current"] = measurement

    base = report.get("baseline", {}).get("scenarios", {})
    cur = report.get("current", {}).get("scenarios", {})
    if base and cur:
        speedups = {}
        for name in cur:
            if name in base and cur[name]["wall_s"] > 0:
                speedups[name] = round(base[name]["wall_s"] / cur[name]["wall_s"], 2)
        mb = report.get("baseline", {}).get("micro", {})
        mc = report.get("current", {}).get("micro", {})
        for name in mc:
            if name in mb and mc[name]["ns_per_op"] > 0:
                speedups[name] = round(mb[name]["ns_per_op"] / mc[name]["ns_per_op"], 2)
        report["speedup_vs_baseline"] = speedups

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"perf_report: wrote {args.output}")


if __name__ == "__main__":
    main()
