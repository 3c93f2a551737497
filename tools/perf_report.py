#!/usr/bin/env python3
"""Hot-path performance report: the benchmark's workloads, the scenario
legs no workload covers, and the micro benchmarks.

Writes/updates the ``BENCH_hotpath.json`` tracked at the repo root (see
README "Measuring: perf_report and BENCH_hotpath.json"):

* each ``BENCHMARK.json`` workload through its tree's ``benchmark/run.py
  --workload W --seed S --seconds 6``, untraced (end to end) and with
  ``--trace 1`` (per layer); the tree is the build dir's
  ``CMAKE_HOME_DIRECTORY``, and a ``correct: false`` result aborts the
  report before anything is written;
* wall-clocks of the fig07, fig13 and scale_hybrid legs in ``SCENARIOS``;
* the google-benchmark micro benchmarks (ns/op and counters).

``--set-baseline PARENT_BUILD_DIR`` measures the ``baseline`` set from a
build of the pre-change tree, alternating the two trees run by run, and
every ``speedup_verdict`` comes from ``run.py compare``'s "improved" rule.
``--check`` re-measures the tree and fails on a machine-normalised
regression beyond BENCHMARK.json's ``wall_s`` bound (wall-clocks) or 60%
(micro ns/op) against the committed ``current`` set, each group normalised
on its own and an entry too noisy to judge reported as unresolved.

Usage:
  tools/perf_report.py --build-dir build [--label NAME]  # update "current"
  tools/perf_report.py --build-dir build \
      --set-baseline ../parent/build                     # measure both sets
  tools/perf_report.py --build-dir build \
      --check BENCH_hotpath.json                         # CI: fail on regression
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # keep benchmark/ free of __pycache__
sys.path.insert(0, str(REPO / "benchmark"))
from run import iqr_share  # noqa: E402  the benchmark's spread measure

SCHEMA = "tfmcc-hotpath-bench/2"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOAD_SECONDS = 6
# The gate's allowed machine-normalised slowdowns: wall-clocks get the
# benchmark's own `wall_s` bound; ns-scale micro benchmarks are noisier.
WALL_TOLERANCE = END_TO_END["wall_s"]["bound"]
MICRO_TOLERANCE = 0.60
MICRO_MIN_TIME_S = 0.5

SCENARIOS = [
    # (entry name, scenario, extra args) — defaults reproduce the paper
    # figures.  fig07 is analytic Monte-Carlo (the full ladder, then
    # extended to n = 10^5); fig13 includes a 1000-receiver packet
    # simulation; scale_hybrid_100k is the fig12-class packet simulation at
    # 10^5 receivers on modeled SoA blocks.
    ("fig07_scaling_full_ladder", "fig07_scaling", []),
    ("fig07_scaling_100k_ladder", "fig07_scaling",
     ["--set", "n_max=100000"]),
    ("fig13_rtt_change_1000rx", "fig13_rtt_change", []),
    ("scale_hybrid_100k", "scale_hybrid_receivers", []),
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


def summary(values, digits=6):
    """The median of some runs and their IQR share."""
    return {"median": round(statistics.median(values), digits),
            "iqr_share": round(iqr_share(values), 4)}


def series(values, digits=6):
    """A judged series: its summary and the runs themselves."""
    return {**summary(values, digits),
            "runs": [round(v, digits) for v in values]}


def beats(a, b, lower):
    """run.py compare's "improved": every run of B beats every run of A,
    and B's median gains on A's by more than the larger IQR share."""
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == 0:
        return False
    gain = (ma - mb) / ma if lower else (mb - ma) / ma
    always = max(b) < min(a) if lower else min(b) > max(a)
    return always and gain > max(iqr_share(a), iqr_share(b))


def verdict(base, cur, lower=True):
    """(speedup, verdict) of run lists `cur` against `base`.  The speedup
    is how many times better cur's median is; the verdict is "faster" or
    "slower" when one side beats the other, else "noise"."""
    mb, mc = statistics.median(base), statistics.median(cur)
    if mb <= 0 or mc <= 0:
        return None, None
    if beats(base, cur, lower):
        word = "faster"
    elif beats(cur, base, lower):
        word = "slower"
    else:
        word = "noise"
    return round(mb / mc if lower else mc / mb, 2), word


def alternating(indices, rep):
    """The build dirs' run order in repeat `rep`: reversed on odd repeats,
    so neither tree always runs first."""
    return list(indices)[::-1 if rep % 2 else 1]


def source_tree(build_dir):
    """The source tree a CMake build dir was configured from."""
    cache = Path(build_dir) / "CMakeCache.txt"
    try:
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return Path(line.partition("=")[2])
    except OSError:
        pass
    sys.exit(f"perf_report: {cache} names no CMAKE_HOME_DIRECTORY")


def run_workload(tree, workload, seed, trace):
    """One `run.py --workload` run in `tree`: its metrics as
    {name: value}.  Exits, writing nothing, unless it reads correct."""
    argv = [sys.executable, str(tree / "benchmark" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(WORKLOAD_SECONDS), "--trace", str(int(trace))]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or result.get("correct") is not True:
        sys.exit(f"perf_report: {tree}: {workload} seed {seed} "
                 f"(trace {int(trace)}) is not correct "
                 f"(exit {proc.returncode}, result {lines[-1:]}); "
                 "nothing written")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_workloads(build_dirs, repeats):
    """Each BENCHMARK.json workload in each build dir's tree, alternating
    between the dirs run by run: {workload: {"end_to_end": {metric:
    series}, "per_layer": {metric: summary}}} per build dir."""
    trees = [source_tree(d) for d in build_dirs]
    metrics = [{} for _ in build_dirs]
    for workload in WORKLOADS:
        runs = [{"end_to_end": {}, "per_layer": {}} for _ in build_dirs]
        for rep in range(repeats):
            for i in alternating(range(len(trees)), rep):
                for half, trace in (("end_to_end", False), ("per_layer", True)):
                    values = run_workload(trees[i], workload, rep + 1, trace)
                    for name, v in values.items():
                        runs[i][half].setdefault(name, []).append(v)
        for i, run in enumerate(runs):
            e2e = {name: series(v) for name, v in run["end_to_end"].items()}
            layers = {name: summary(v) for name, v in run["per_layer"].items()}
            metrics[i][workload] = {"end_to_end": e2e, "per_layer": layers}
            print(f"perf_report: {trees[i]}: {workload}: wall_s "
                  f"{e2e['wall_s']['median']:.4g} s, trace overhead "
                  f"{layers['trace.overhead_ratio']['median']:.2f}x "
                  f"(median of {repeats})")
    return metrics


def run_scenarios(build_dirs, repeats):
    """Times each scenario leg end to end in each build dir, alternating
    between the dirs run by run: {name: {"wall_s": series}}."""
    binaries = [os.path.join(d, "bench", "tfmcc_sim") for d in build_dirs]
    for binary in binaries:
        if not os.path.exists(binary):
            sys.exit(f"perf_report: {binary} not built")
    metrics = [{} for _ in build_dirs]
    for entry_name, scenario, extra in SCENARIOS:
        walls = [[] for _ in build_dirs]
        for rep in range(repeats):
            for i in alternating(range(len(binaries)), rep):
                t0 = time.monotonic()
                subprocess.run([binaries[i], scenario, *extra,
                                "--output", os.devnull], check=True)
                walls[i].append(time.monotonic() - t0)
        for i, runs in enumerate(walls):
            metrics[i][entry_name] = {"wall_s": series(runs, 3)}
            print(f"perf_report: {build_dirs[i]}: {entry_name}: "
                  f"{statistics.median(runs):.2f} s (median of {repeats}, "
                  f"{min(runs):.2f}-{max(runs):.2f})")
    return metrics


def run_micro_once(binary, out_json):
    """One run of the micro benchmark binary, one repetition per benchmark.

    Returns {name: google-benchmark's record of it}, or None if it failed.
    """
    base = [binary, f"--benchmark_filter={MICRO_FILTER}",
            f"--benchmark_out={out_json}", "--benchmark_out_format=json"]
    # Older google-benchmark rejects the unit-suffixed min_time spelling.
    for min_time_arg in (f"--benchmark_min_time={MICRO_MIN_TIME_S}s",
                         f"--benchmark_min_time={MICRO_MIN_TIME_S}"):
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


def run_micro(build_dirs, repeats):
    """Runs the google-benchmark suite of each build dir `repeats` times,
    alternating between the dirs run by run.

    Returns one {name: {"ns_per_op": series, items_per_s, counters...}} per
    build dir, the counters being medians over the runs.  A dir without the
    binary (no google-benchmark), or whose binary fails, gets an empty dict.
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
            result = run_micro_once(binaries[i], out_json)
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
            entry = {"ns_per_op": series([r["real_time"] for r in reps], 3)}
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


# (group, unit, the gate's bound, whether a fresh entry that the committed
# report lacks stops the gate rather than going ungated).  Each group is its
# own kind of time: the legs' raw wall-clocks, the workloads' wall_s that
# run.py has already corrected for host speed, and micro ns/op.
GROUPS = (("scenario legs", "s", WALL_TOLERANCE, True),
          ("workloads", "s", WALL_TOLERANCE, True),
          ("micro benchmarks", "ns/op", MICRO_TOLERANCE, False))


def gated(measured):
    """The gated run lists of one measurement set, group by group, in the
    order of GROUPS."""
    return [
        {name: e["wall_s"]["runs"]
         for name, e in measured.get("scenarios", {}).items()},
        {name: e["end_to_end"]["wall_s"]["runs"]
         for name, e in measured.get("workloads", {}).items()},
        {name: e["ns_per_op"]["runs"]
         for name, e in measured.get("micro", {}).items()},
    ]


def gate(what, committed, fresh, unit, tolerance, must_be_committed):
    """Judges one group's fresh runs against its committed runs and returns
    the names of the entries that regressed.

    The committed runs come from whatever machine last ran perf_report, so
    each fresh run is divided by the group's median ratio of fresh to
    committed medians: a uniformly slower runner passes, one entry slowing
    against its peers does not, and one noisy entry reading fast cannot
    flag the rest.  An entry whose normalised median is more than
    `tolerance` worse regresses; as in run.py compare, it is unresolved
    instead when the larger iqr_share exceeds `tolerance` and not every
    fresh run reads worse than every committed one.
    """
    if not fresh:
        print(f"perf_report: no {what} measured; skipping its gate")
        return []
    new = sorted(set(fresh) - set(committed))
    if new and must_be_committed:
        sys.exit(f"perf_report: {what} missing from the committed report "
                 f"(re-run perf_report and commit it): {', '.join(new)}")
    for name in new:
        print(f"perf_report: {name}: not in the committed report (not gated)")
    common = sorted(set(fresh) & set(committed))
    if not common:
        print(f"perf_report: the committed report shares no {what} with "
              "this measurement; skipping its gate")
        return []
    ratios = {name: statistics.median(fresh[name])
              / statistics.median(committed[name]) for name in common}
    scale = statistics.median(ratios.values())
    failures, unresolved = [], []
    for name in common:
        old, runs = committed[name], [v / scale for v in fresh[name]]
        worse = statistics.median(runs) / statistics.median(old) - 1
        spread = max(iqr_share(old), iqr_share(runs))
        if spread > tolerance and not min(runs) > max(old):
            word = "unresolved"
            unresolved.append(name)
        elif worse > tolerance:
            word = "REGRESSION"
            failures.append(name)
        else:
            word = "OK"
        print(f"perf_report: {name}: committed {statistics.median(old):.4g} "
              f"{unit}, measured {statistics.median(fresh[name]):.4g} {unit} "
              f"({ratios[name]:.2f}x raw, {1 + worse:.2f}x normalised, "
              f"spread {spread:.0%}) {word}")
    if not failures:
        print(f"perf_report: {what}: {len(common) - len(unresolved)} within "
              f"{tolerance:.0%} of the committed report (normalised), "
              f"{len(unresolved)} unresolved (spread beyond {tolerance:.0%})")
    return failures


def check(report, fresh):
    """Gates a fresh measurement set against the report's 'current' set."""
    committed = report.get("current")
    if report.get("schema") != SCHEMA or not committed:
        sys.exit(f"perf_report: --check needs a committed {SCHEMA} "
                 "'current' measurement set in the report")
    failures = []
    for (what, unit, tolerance, must_be_committed), old, new in zip(
            GROUPS, gated(committed), gated(fresh)):
        failures += [f"{name} (beyond {tolerance:.0%})" for name in
                     gate(what, old, new, unit, tolerance, must_be_committed)]
    if failures:
        sys.exit(f"perf_report: regression: {', '.join(failures)}")


def verdicts(base, cur):
    """({name: speedup}, {name: verdict}) of every series both sets hold:
    `workload.metric` for the workloads' end-to-end metrics, the entry name
    for scenario wall-clocks and micro ns/op."""
    pairs = []
    for w, entry in cur.get("workloads", {}).items():
        old = base.get("workloads", {}).get(w, {}).get("end_to_end", {})
        for metric, s in entry["end_to_end"].items():
            if metric in old:
                pairs.append((f"{w}.{metric}", old[metric], s,
                              END_TO_END[metric]["better"] == "lower"))
    for kind, key in (("scenarios", "wall_s"), ("micro", "ns_per_op")):
        for name, entry in cur.get(kind, {}).items():
            if name in base.get(kind, {}):
                pairs.append((name, base[kind][name][key], entry[key], True))
    speedups, words = {}, {}
    for name, old, new, lower in pairs:
        ratio, word = verdict(old["runs"], new["runs"], lower)
        if ratio is not None:
            speedups[name], words[name] = ratio, word
            print(f"perf_report: {name}: {ratio:.2f}x vs baseline ({word})")
    return speedups, words


UNIT_NOTES = {
    "median, iqr_share, runs": "over the --repeats runs: median, "
                               "(q3 - q1) / median as run.py computes it, "
                               "and every run's value in run order",
    "workloads": f"benchmark/run.py --seconds {WORKLOAD_SECONDS}, repeat k "
                 "on seed k + 1, units as BENCHMARK.json declares them; "
                 "times corrected for host speed as run.py does; "
                 "per_layer comes from traced episodes, "
                 "trace.overhead_ratio times slower than untraced ones",
    "wall_s": "scenario leg wall-clock, seconds, uncorrected for host "
              "speed",
    "ns_per_op": "google-benchmark real time per operation",
    "ns_per_copy": "real time per delivered multicast copy (median)",
    "ns_per_draw": "real time per Rng::uniform01() draw (median)",
    "ns_per_delivery": "real time per delivery to a full receiver (median)",
    "ns_per_stream": "real time per short arena stream: its construction "
                     "and its draws (median)",
    "arena_bytes_per_stream": "arena bytes reserved per short stream, "
                              "chunk slack included (median)",
    "speedup_vs_baseline": "how many times better the current median is",
    "speedup_verdict": "faster or slower when every run of one set beats "
                       "every run of the other and the medians differ by "
                       "more than the larger iqr_share, else noise",
}


def main(argv=None):
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
                    help="runs per workload, scenario and micro benchmark "
                         "(default 5)")
    ap.add_argument("--check", metavar="REPORT",
                    help="compare a fresh measurement against REPORT's "
                         "'current' set and fail on regression; does not "
                         "write anything")
    args = ap.parse_args(argv)

    if args.check and args.set_baseline:
        sys.exit("perf_report: --check measures one tree; drop --set-baseline")
    if args.repeats < 1:
        sys.exit("perf_report: --repeats must be >= 1")
    # Current first, then the baseline when one is measured.
    build_dirs = [args.build_dir] + ([args.set_baseline]
                                     if args.set_baseline else [])
    workloads = run_workloads(build_dirs, args.repeats)
    scenarios = run_scenarios(build_dirs, args.repeats)
    micro = run_micro(build_dirs, args.repeats)
    sets = [{"workloads": w, "scenarios": s, "micro": m}
            for w, s, m in zip(workloads, scenarios, micro)]

    if args.check:
        with open(args.check) as f:
            check(json.load(f), sets[0])
        return

    report = {}
    if os.path.exists(args.output):
        with open(args.output) as f:
            report = json.load(f)
    if report.get("schema") != SCHEMA:
        report = {}  # an older schema's sets cannot be compared
    report["schema"] = SCHEMA
    report["unit_notes"] = UNIT_NOTES
    report["current"] = {"label": args.label or "current", **sets[0]}
    if args.set_baseline:
        report["baseline"] = {"label": "baseline", **sets[1]}
    if "baseline" in report:
        (report["speedup_vs_baseline"],
         report["speedup_verdict"]) = verdicts(report["baseline"],
                                               report["current"])

    with open(args.output, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"perf_report: wrote {args.output}")


if __name__ == "__main__":
    main()
