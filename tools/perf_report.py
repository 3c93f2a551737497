#!/usr/bin/env python3
"""Hot-path performance report: micro benchmarks + scenario wall-clocks.

Measures the simulator's perf trajectory and writes/updates the
``BENCH_hotpath.json`` tracked at the repo root:

* micro benchmarks (google-benchmark, ``BM_SchedulerChurn`` and friends)
  reported as ns/op and items/s (``BM_MulticastFanout`` also as ns per
  delivered copy);
* wall-clock runs of the heavyweight paper scenarios — fig07 (full
  Monte-Carlo ladder), fig12 and fig13 (both dominated by the
  1000-receiver packet simulations) — and of one replicated,
  checkpointed fig07 sweep.

Every number is the median of N repeats (scenarios: N process runs;
micros: N runs of the benchmark binary) together with the repeats' min and
max.  A baseline/current ratio whose two min-max ranges overlap is printed
and recorded as noise, not as a change.

Usage:
  tools/perf_report.py --build-dir build                 # measure, update "current"
  tools/perf_report.py --build-dir build --label NAME    # ... with a custom label
  tools/perf_report.py --build-dir build \
      --set-baseline ../parent/build                     # measure both sets
  tools/perf_report.py --build-dir build \
      --check BENCH_hotpath.json --tolerance 0.25        # CI: fail on regression

The JSON keeps two measurement sets: ``baseline`` (the pre-optimisation
reference: a build of the pre-PR tree) and ``current`` (the tree as
committed).  Perf PRs must refresh both — see README "Performance".
``--set-baseline PARENT_BUILD_DIR`` measures the two trees in one
invocation and alternates them run by run (each scenario repeat, each micro
benchmark run, with the first tree flipping every repeat), so drift of the
host over the minutes a report takes hits both sets alike instead of
reading as a change.  ``--check`` re-measures the working tree and fails
when any scenario wall-clock is more than ``--tolerance`` (default 25%)
slower than the committed ``current`` entry, or any micro benchmark is more
than ``--micro-tolerance`` (default 60%) slower ns/op — both after
machine-speed normalisation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Stands for a scratch checkpoint path inside the build directory.
CHECKPOINT = "{checkpoint}"

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
    # The same at 10^6 receivers, the size of the repository benchmark's
    # hybrid_1m workload: the per-round chunked draw dominates.
    ("scale_hybrid_1m", "scale_hybrid_receivers",
     ["--set", "n_receivers=1000000"]),
    # Dynamic-membership stress: 2000 receivers, >10k join/leave events on
    # the incremental graft/prune path — the wall-clock regression probe for
    # membership maintenance (BM_MembershipChurn gates the per-event cost).
    ("churn_flash_crowd_2000rx", "churn_flash_crowd", []),
    # The sweep engine end to end: 16 grid points x 8 replicates on 2 jobs,
    # appending to its checkpoint log after every fold — the regression
    # probe for folding, point reduction and checkpoint appends.
    ("fig07_sweep_replicated_checkpointed", "sweep",
     ["fig07_scaling", "--sweep", "n_receivers=2:2000:log16",
      "--set", "trials=10", "--replicate", "8", "--jobs", "2",
      "--checkpoint", CHECKPOINT, "--checkpoint-every", "1"]),
]

MICRO_FILTER = ("BM_SchedulerChurn|BM_EquationFull|BM_EquationInverse|"
                "BM_EquationBatch|BM_LossHistoryReceive|BM_MembershipChurn|"
                "BM_PacketPoolChurn|BM_FeedbackTimerDraw|BM_FeedbackRound|"
                "BM_ModeledBlockRound|BM_MulticastFanout|BM_ComputeRoutes|"
                "BM_RngUniform01|BM_RngShortStream|BM_ReceiverOnData|"
                "BM_ReceiverFanout")


# Counters google-benchmark reports as inverted rates, in seconds.
INVERTED_COUNTERS = ("ns_per_copy", "ns_per_draw", "ns_per_delivery",
                     "ns_per_stream")
# Counters recorded as they are.
PLAIN_COUNTERS = ("arena_bytes_per_stream",)


def summarise(values):
    """(median, min, max) of a list of numbers."""
    return statistics.median(values), min(values), max(values)


def alternating(indices, rep):
    """The build dirs' run order in repeat `rep`: reversed on odd repeats,
    so neither tree always runs first."""
    return list(indices)[::-1 if rep % 2 else 1]


def run_micro_once(binary, out_json, min_time):
    """One run of the micro benchmark binary, one repetition per benchmark.

    Returns {name: google-benchmark's record of it}, or None if it failed.
    """
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
        return None
    with open(out_json) as f:
        data = json.load(f)
    return {b.get("run_name", b["name"]): b
            for b in data.get("benchmarks", [])
            if b.get("run_type") != "aggregate"}


def run_micro(build_dirs, min_time, repeats):
    """Runs the google-benchmark suite of each build dir `repeats` times,
    alternating between the dirs run by run.

    Returns one {name: {ns_per_op, ns_min, ns_max, ...}} per build dir: the
    median of each value over the runs, with the min and max real time.  A
    dir without the binary (no google-benchmark), or whose binary fails,
    gets an empty dict.
    """
    binaries = [os.path.join(d, "bench", "micro_benchmarks")
                for d in build_dirs]
    runs = [{} for _ in build_dirs]
    live = []
    for i, binary in enumerate(binaries):
        if os.path.exists(binary):
            live.append(i)
        else:
            print(f"perf_report: {binary} not built (google-benchmark "
                  "missing?); skipping its micro benchmarks", file=sys.stderr)
    for rep in range(repeats):
        for i in alternating(live, rep):
            out_json = os.path.join(build_dirs[i], "perf_report_micro.json")
            result = run_micro_once(binaries[i], out_json, min_time)
            if result is None:
                print(f"perf_report: {binaries[i]} failed; skipping its "
                      "micro benchmarks", file=sys.stderr)
                live.remove(i)
                runs[i] = {}
                continue
            for name, bench in result.items():
                runs[i].setdefault(name, []).append(bench)
    metrics = [{} for _ in build_dirs]
    for i in live:
        for name, reps in runs[i].items():
            ns, ns_lo, ns_hi = summarise([r["real_time"] for r in reps])
            entry = {"ns_per_op": round(ns, 3),
                     "ns_min": round(ns_lo, 3),
                     "ns_max": round(ns_hi, 3),
                     "repetitions": len(reps)}
            if "items_per_second" in reps[0]:
                entry["items_per_s"] = round(statistics.median(
                    r["items_per_second"] for r in reps))
            for counter in INVERTED_COUNTERS + PLAIN_COUNTERS:
                if counter in reps[0]:
                    scale = 1e9 if counter in INVERTED_COUNTERS else 1.0
                    entry[counter] = round(statistics.median(
                        r[counter] for r in reps) * scale, 3)
            metrics[i][name] = entry
    return metrics


def run_scenarios(build_dirs, repeats):
    """Times each scenario end to end in each build dir: median, min and
    max over N runs, alternating between the dirs run by run."""
    binaries = [os.path.join(d, "bench", "tfmcc_sim") for d in build_dirs]
    for binary in binaries:
        if not os.path.exists(binary):
            sys.exit(f"perf_report: {binary} not built")
    checkpoints = [os.path.join(d, "perf_report_sweep.ckpt")
                   for d in build_dirs]
    metrics = [{} for _ in build_dirs]
    for entry_name, scenario, extra in SCENARIOS:
        walls = [[] for _ in build_dirs]
        for rep in range(repeats):
            for i in alternating(range(len(binaries)), rep):
                binary = binaries[i]
                # Flags follow the extra arguments: `sweep` wants its
                # scenario name first, and a single run takes its flags in
                # any order.
                argv = [binary, scenario,
                        *[checkpoints[i] if a == CHECKPOINT else a
                          for a in extra],
                        "--output", os.devnull]
                if os.path.exists(checkpoints[i]):
                    os.remove(checkpoints[i])
                t0 = time.monotonic()
                subprocess.run(argv, check=True)
                walls[i].append(time.monotonic() - t0)
        for i, runs in enumerate(walls):
            median, lo, hi = summarise(runs)
            metrics[i][entry_name] = {"wall_s": round(median, 3),
                                      "wall_min_s": round(lo, 3),
                                      "wall_max_s": round(hi, 3),
                                      "repeats": repeats}
            print(f"perf_report: {build_dirs[i]}: {entry_name}: "
                  f"{median:.2f} s (median of {repeats}, {lo:.2f}-{hi:.2f})")
    for checkpoint in checkpoints:
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
    return metrics


def load_report(path):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {"schema": "tfmcc-hotpath-bench/1", "unit_notes": {}}


def spread(entry, value_key, min_key, max_key):
    """(median, min, max) of an entry; an entry without a recorded spread
    (older reports) is one point."""
    v = entry[value_key]
    return v, entry.get(min_key, v), entry.get(max_key, v)


def compare(base, cur, value_key, min_key, max_key):
    """Speedup of `cur` over `base` (lower values are better) and its
    verdict: "faster" or "slower" when the two min-max ranges are
    disjoint, "noise" when they overlap."""
    b, b_lo, b_hi = spread(base, value_key, min_key, max_key)
    c, c_lo, c_hi = spread(cur, value_key, min_key, max_key)
    if c <= 0:
        return None, None
    if c_hi < b_lo:
        verdict = "faster"
    elif c_lo > b_hi:
        verdict = "slower"
    else:
        verdict = "noise"
    return round(b / c, 2), verdict


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
    ap.add_argument("--set-baseline", metavar="PARENT_BUILD_DIR",
                    help="also measure this build of the pre-change tree "
                         "into 'baseline', alternating its runs with "
                         "--build-dir's")
    ap.add_argument("--repeats", type=int, default=5,
                    help="runs per scenario and per micro benchmark; the "
                         "median is recorded (default 5)")
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

    if args.check and args.set_baseline:
        sys.exit("perf_report: --check measures one tree; drop --set-baseline")
    # Current first, then the baseline when one is measured.
    build_dirs = [args.build_dir] + ([args.set_baseline]
                                     if args.set_baseline else [])
    scenarios = run_scenarios(build_dirs, args.repeats)
    micro = run_micro(build_dirs, args.min_time, args.repeats)

    if args.check:
        report = load_report(args.check)
        check(report, scenarios[0], args.tolerance)
        check_micro(report, micro[0], args.micro_tolerance)
        return

    report = load_report(args.output)
    report.setdefault("unit_notes", {}).update({
        "wall_s": "end-to-end scenario wall-clock, median of N runs, seconds",
        "wall_min_s": "fastest of the N runs, seconds",
        "wall_max_s": "slowest of the N runs, seconds",
        "ns_per_op": "google-benchmark real time per operation, median of "
                     "N runs",
        "ns_min": "fastest run's real time per operation",
        "ns_max": "slowest run's real time per operation",
        "ns_per_copy": "real time per delivered multicast copy (median)",
        "ns_per_draw": "real time per Rng::uniform01() draw (median)",
        "ns_per_delivery": "real time per delivery to a full receiver "
                           "(median)",
        "ns_per_stream": "real time per short arena stream: its "
                         "construction and its draws (median)",
        "arena_bytes_per_stream": "arena bytes reserved per short stream, "
                                  "chunk slack included (median)",
        "speedup_vs_baseline": "baseline median / current median",
        "speedup_verdict": "faster or slower when the baseline and current "
                           "min-max ranges are disjoint, else noise",
    })
    report["current"] = {"label": args.label or "current",
                         "scenarios": scenarios[0], "micro": micro[0]}
    if args.set_baseline:
        report["baseline"] = {"label": "baseline", "scenarios": scenarios[1],
                              "micro": micro[1]}

    base = report.get("baseline", {})
    cur = report.get("current", {})
    if base.get("scenarios") and cur.get("scenarios"):
        speedups = {}
        verdicts = {}
        for kind, keys in (("scenarios", ("wall_s", "wall_min_s", "wall_max_s")),
                           ("micro", ("ns_per_op", "ns_min", "ns_max"))):
            for name, entry in cur.get(kind, {}).items():
                if name not in base.get(kind, {}):
                    continue
                ratio, verdict = compare(base[kind][name], entry, *keys)
                if ratio is None:
                    continue
                speedups[name] = ratio
                verdicts[name] = verdict
                print(f"perf_report: {name}: {ratio:.2f}x vs baseline "
                      f"({verdict})")
        report["speedup_vs_baseline"] = speedups
        report["speedup_verdict"] = verdicts

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"perf_report: wrote {args.output}")


if __name__ == "__main__":
    main()
