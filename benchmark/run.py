#!/usr/bin/env python3
"""The repository benchmark: builds tfmcc_bench, runs workload episodes in
fresh processes, checks their outputs, and prints every metric by name with
its unit.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run of workload W.  Episodes (one simulation each, seeded
      from N) run back to back until S seconds have passed; each metric is
      the median over the episodes.  Times are scaled to a nominal host
      speed measured by tfmcc_reference between episodes (see README.md).
      --trace 1 runs every episode twice, untraced and traced, and reports
      the per-layer metrics instead.  The last stdout line is one JSON
      object: correct, attempted, failed, metrics.

  python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]
                           [--runs R] [--out F]
      The same for every workload in BENCHMARK.json, as a table; R runs per
      workload on seeds N, N+1, ...  --out writes every run's metrics and
      the host facts to F for `compare`.

  python3 benchmark/run.py compare A.json B.json
      Checks every (metric, workload) row of B against A and the metric's
      bound, using the spread between the runs of each file, and records
      that spread in benchmark/spread.json.

  python3 benchmark/run.py --quick [--record-goldens]
      Self-test: every workload at 1/20 of its horizon, traced and
      untraced, on the canonical seed.  --record-goldens rewrites
      benchmark/expected.json from this build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = HERE / "build"
BINARY = BUILD / "tfmcc_bench"
REFERENCE = BUILD / "tfmcc_reference"
SCRATCH = BUILD / "scratch"
SPEC = REPO / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
SPREAD = HERE / "spread.json"

CANONICAL_SEED = 1
# tfmcc_reference's time on an idle 4-vCPU Xeon VM at 2.1 GHz (g++ 12.2,
# Release).  Reported times are seconds on a host where it takes this long.
NOMINAL_REFERENCE_S = 0.013
TIME_UNITS = ("s", "ms", "ns")
MIN_EPISODES = 3
EPISODE_TIMEOUT_S = 120
SWEEP_WORKLOAD = "sweep_replicated"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    # Compilers and the sweep's checkpoint write only inside the build tree.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    # `cmake --build` re-runs the configure step itself when a CMakeLists
    # changes, so configuring is needed only for a fresh tree.
    cmds = [["cmake", "--build", str(BUILD),
             "-j", str(min(4, os.cpu_count() or 1))]]
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        cmds.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, env=child_env())
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            raise SystemExit("error: building tfmcc_bench failed")


def episode_seed(seed, k):
    """Seed of episode k: the run's seed itself, then splitmix64 mixes."""
    if k == 0:
        return seed
    x = (seed + 0x9E3779B97F4A7C15 * k) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) >> 1


def run_episode(workload, seed, trace=False, quick=False):
    """One fresh tfmcc_bench process.  Wall time, peak RSS and CPU time are
    this child's own, from wait4."""
    cmd = [str(BINARY), workload, "--seed", str(seed),
           "--scratch", str(SCRATCH)]
    if trace:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env())
    watchdog = threading.Timer(EPISODE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall_s = time.perf_counter() - t0
    # Reaped by wait4 above; recording the code keeps Popen from waiting.
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    lines = out.decode(errors="replace").strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            record = None
    return {
        "seed": seed,
        "exit": proc.returncode,
        "record": record,
        "wall_s": wall_s,
        "rss_mb": ru.ru_maxrss / 1024.0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
    }


def run_reference():
    out = subprocess.run([str(REFERENCE)], stdout=subprocess.PIPE,
                         check=True, env=child_env()).stdout
    return float(out.split()[0])


def episode_failures(ep):
    """(attempted, failed, reasons) of one episode."""
    rec = ep["record"]
    if rec is None:
        return 1, 1, [f"seed {ep['seed']}: no record (exit {ep['exit']})"]
    reasons = [f"seed {ep['seed']}: {r}" for r in rec["failures"]]
    failed = rec["failed_runs"]
    if ep["exit"] != 0 and failed == 0:
        failed = 1
        reasons.append(f"seed {ep['seed']}: exit {ep['exit']}")
    return rec["attempted"], failed, reasons


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end_values(ep, speed=1.0):
    """End-to-end metrics of one untraced episode; times are multiplied by
    `speed`, the host-speed correction."""
    rec = ep["record"]
    c = rec["counters"]
    wall_s = ep["wall_s"] * speed
    loop_s = rec["spans"]["loop"][1] * 1e-9 * speed
    # The sweep's deliveries happen on two worker threads; per host second
    # of the whole process is what a sweep user waits for.
    base_s = wall_s if rec["workload"] == SWEEP_WORKLOAD else loop_s
    return {
        "wall_s": wall_s,
        "setup_s": rec["setup_s"] * speed,
        "deliveries_per_s": ratio(c["delivered_endpoints"], base_s),
        "runs_per_s": ratio(c["runs"], wall_s),
        "peak_rss_mb": ep["rss_mb"],
    }


def layer_values(rec, untraced_loop_s):
    """Per-layer metrics of one traced episode."""
    c = rec["counters"]
    sp = {k: {"calls": v[0], "total": v[1] * 1e-9, "self": v[2] * 1e-9}
          for k, v in rec["spans"].items()}
    busy = sp["loop"]["total"]
    v = {
        "sim.loop.busy_s": busy,
        "sim.loop.remainder_s": sp["loop"]["self"],
        "sim.loop.remainder_ns_per_event":
            ratio(sp["loop"]["self"] * 1e9, c["events"]),
        "sim.scheduler.events": c["events"],
        "sim.scheduler.events_per_delivery":
            ratio(c["events"], c["delivered_endpoints"]),
        "sim.scheduler.pending_peak": c["pending_peak"],
        "net.node.forwarded": c["forwarded"],
        "net.node.delivered_endpoints": c["delivered_endpoints"],
        "net.link.delivered_packets": c["link_delivered"],
        "net.queue.drops": c["queue_drops"],
        "net.queue.drop_ratio":
            ratio(c["queue_drops"], c["queue_drops"] + c["queue_accepted"]),
        "net.packet_pool.heap_allocations": c["pool_heap_allocations"],
        "net.setup.topology_s": sp["setup_topology"]["total"],
        "tfmcc.receiver.feedback_sent": c["receiver_feedback"],
        "tfmcc.receiver_block.handle_packet.calls": sp["block"]["calls"],
        "tfmcc.receiver_block.handle_packet.self_s": sp["block"]["self"],
        "tfmcc.receiver_block.self_ns_per_receiver_round":
            ratio(sp["block"]["self"] * 1e9, c["block_receiver_rounds"]),
        "tfmcc.receiver_block.feedback_sent": c["block_feedback"],
        "tfmcc.sender.rounds": c["sender_rounds"],
        "tfmcc.sender.feedback_per_round":
            ratio(c["sender_feedback"], c["sender_rounds"]),
        "tfmcc.sender.data_sent": c["data_sent"],
        "tfmcc.sender.clr_changes": c["clr_changes"],
        "tfrc.equation.scalar.calls": sp["eq_scalar"]["calls"],
        "tfrc.equation.scalar.busy_s": sp["eq_scalar"]["total"],
        "tfrc.equation.inverse.calls": sp["eq_inverse"]["calls"],
        "tfrc.equation.inverse.busy_s": sp["eq_inverse"]["total"],
        "tfrc.equation.batch.items": c["batch_items"],
        "tfrc.equation.batch.ns_per_item":
            ratio(sp["eq_batch"]["total"] * 1e9, c["batch_items"]),
        "tcp.handle_packet.calls": sp["tcp"]["calls"],
        "tcp.handle_packet.self_s": sp["tcp"]["self"],
        "trace.overhead_ratio": ratio(busy, untraced_loop_s),
    }
    for span, prefix in (("receiver", "tfmcc.receiver.handle_packet"),
                         ("sender", "tfmcc.sender.handle_packet")):
        v[prefix + ".calls"] = sp[span]["calls"]
        v[prefix + ".self_s"] = sp[span]["self"]
        v[prefix + ".ns_per_call"] = ratio(sp[span]["total"] * 1e9,
                                           sp[span]["calls"])
    for span, prefix in (("receiver_join", "tfmcc.receiver.join"),
                         ("receiver_leave", "tfmcc.receiver.leave")):
        v[prefix + ".calls"] = sp[span]["calls"]
        v[prefix + ".ns_per_call"] = ratio(sp[span]["total"] * 1e9,
                                           sp[span]["calls"])
    # The sweep engine's share: every job-second not spent inside a run.
    sw = rec["sweep"]
    runs = c["runs"] if rec["workload"] == SWEEP_WORKLOAD else 0
    run_busy = sp["sweep_run"]["total"] if runs else 0.0
    capacity = sw["jobs"] * sw["wall_s"] if runs else 0.0
    engine = capacity - run_busy
    v.update({
        "sim.sweep.runs": runs,
        "sim.sweep.run_busy_s": run_busy,
        "sim.sweep.run_ms_p50": sw["run_ms_p50"] if runs else 0.0,
        "sim.sweep.run_ms_p90": sw["run_ms_p90"] if runs else 0.0,
        "sim.sweep.engine_s": engine,
        "sim.sweep.engine_ms_per_run": ratio(engine * 1e3, runs),
        "sim.sweep.parallel_efficiency": ratio(run_busy, capacity),
        "sim.sweep.output_bytes_per_run":
            ratio(c["output_bytes"], runs) if runs else 0.0,
        "sim.sweep.checkpoint_saves": sw["checkpoint_saves"] if runs else 0,
        "sim.sweep.checkpoint_bytes": sw["checkpoint_bytes"] if runs else 0,
    })
    return v


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def measure(workload, seed, seconds, trace, spec):
    """One measured run: (the JSON result line, facts about the run)."""
    expected = load_expected()
    attempted = failed = 0
    reasons = []
    samples = {}
    cpu_s = []
    time_metrics = {m["name"] for m in spec["per_layer"]
                    if m["unit"] in TIME_UNITS}
    ref = run_reference()

    def speed_since_last_reference():
        # The faster of the two references around an episode: a slow
        # outlier of the kernel itself must not inflate the correction.
        nonlocal ref
        before, ref = ref, run_reference()
        return NOMINAL_REFERENCE_S / min(before, ref)

    t_end = time.perf_counter() + seconds
    k = 0
    while k < MIN_EPISODES or time.perf_counter() < t_end:
        seed_k = episode_seed(seed, k)
        ep = run_episode(workload, seed_k)
        speed = speed_since_last_reference()
        a, f, r = episode_failures(ep)
        attempted, failed, reasons = attempted + a, failed + f, reasons + r
        ok = ep["record"] is not None
        if ok and seed_k == expected.get("seed") and k == 0:
            attempted += 1
            if ep["record"]["digest"] != expected["full"].get(workload):
                failed += 1
                reasons.append("canonical digest differs from expected.json")
        if trace:
            tep = run_episode(workload, seed_k, trace=True)
            tspeed = speed_since_last_reference()
            a, f, r = episode_failures(tep)
            attempted, failed, reasons = attempted + a, failed + f, reasons + r
            if ok and tep["record"] is not None:
                attempted += 1
                if tep["record"]["digest"] != ep["record"]["digest"]:
                    failed += 1
                    reasons.append(f"seed {seed_k}: traced digest differs")
                else:
                    loop_s = ep["record"]["spans"]["loop"][1] * 1e-9
                    values = layer_values(tep["record"],
                                          loop_s * speed / tspeed)
                    for name, v in values.items():
                        if name in time_metrics:
                            v *= tspeed
                        samples.setdefault(name, []).append(v)
        elif ok:
            for name, v in end_to_end_values(ep, speed).items():
                samples.setdefault(name, []).append(v)
            cpu_s.append(ep["cpu_s"])
        k += 1

    # Output check on the canonical seed, whatever seed the run used.
    golden = expected.get("quick", {}).get(workload)
    qep = run_episode(workload, expected.get("seed", CANONICAL_SEED),
                      quick=True)
    a, f, r = episode_failures(qep)
    attempted, failed, reasons = attempted + a + 1, failed + f, reasons + r
    if qep["record"] is None or qep["record"]["digest"] != golden:
        failed += 1
        reasons.append("quick canonical digest differs from expected.json")

    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in names:
        vals = samples.get(m["name"])
        if vals:
            # Peak RSS takes a few page-sized values per workload, so its
            # median repeats exactly run after run; the mean keeps the rest.
            center = statistics.fmean if m["name"] == "peak_rss_mb" \
                else statistics.median
            metrics[m["name"]] = {"value": center(vals), "unit": m["unit"]}
    if len(metrics) != len(names):
        failed = max(failed, 1)
        reasons.append("no successful episode to measure")
    for r in reasons:
        log(f"{workload}: FAILED {r}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    info = {"seed": seed, "episodes": k,
            "cpu_s": statistics.median(cpu_s) if cpu_s else None}
    return result, info


def host_facts():
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, cwd=REPO)
            return out.stdout.decode().splitlines()[0].strip()
        except (OSError, IndexError):
            return "unknown"
    cache = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:")):
                key, _, val = line.partition("=")
                cache[key.split(":")[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    return {
        "nproc": os.cpu_count(),
        "compiler": first_line([compiler, "--version"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
    }


def print_metrics(workload, result, info):
    print(f"{workload}: seed {info['seed']}, {info['episodes']} episodes, "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:50s} {m['value']:.6g} {m['unit']}")


def cmd_measure(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    if any(w not in names for w in workloads):
        raise SystemExit(f"error: unknown workload (known: {', '.join(names)})")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    build()
    report = {"host": host_facts(), "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "workloads": {}}
    report["host"]["loadavg_before"] = os.getloadavg()
    failed = 0
    for w in workloads:
        runs = []
        for i in range(args.runs):
            result, info = measure(w, args.seed + i, seconds,
                                   bool(args.trace), spec)
            print_metrics(w, result, info)
            runs.append(dict(result, **info))
            failed += result["failed"]
        report["workloads"][w] = runs
    report["host"]["loadavg_after"] = os.getloadavg()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    if args.workload and args.runs == 1:
        print(json.dumps(result))
        return 0
    print(json.dumps({"correct": failed == 0, "failed": failed}))
    return 0 if failed == 0 else 1


def iqr_share(vals):
    if len(vals) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(statistics.median(vals)) if med else 0.0


def cmd_compare(args):
    spec = load_spec()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    spread = {}
    regressions = 0
    print(f"{'metric':18s} {'workload':18s} {'A':>12s} {'B':>12s} "
          f"{'worse':>8s} {'spread':>7s} {'bound':>6s}  verdict")

    def values(report, w, name):
        return [r["metrics"][name]["value"] for r in report["workloads"][w]
                if name in r["metrics"]]

    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        entry = spread.setdefault(name, {"bound": bound, "spread": {}})
        for w in a["workloads"]:
            if w not in b["workloads"]:
                continue
            sa, sb = values(a, w, name), values(b, w, name)
            if len(sa) < 2 or len(sb) < 2:
                print(f"{name:18s} {w:18s} needs at least 2 runs per file")
                continue
            ma, mb = statistics.median(sa), statistics.median(sb)
            lower = m["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            s = max(iqr_share(sa), iqr_share(sb))
            entry["spread"][w] = round(s, 4)
            b_always_better = (max(sb) < min(sa)) if lower else \
                (min(sb) > max(sa))
            if s > bound and not b_always_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif b_always_better and -worse > s:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"{name:18s} {w:18s} {ma:12.6g} {mb:12.6g} "
                  f"{worse:+8.2%} {s:7.2%} {bound:6.0%}  {verdict}")
    with open(SPREAD, "w") as f:
        json.dump(spread, f, indent=1, sort_keys=True)
        f.write("\n")
    return 1 if regressions else 0


def cmd_quick(args):
    spec = load_spec()
    build()
    expected = load_expected()
    golden = {"seed": CANONICAL_SEED, "quick": {}, "full": {}}
    t0 = time.perf_counter()
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        ep = run_episode(w, CANONICAL_SEED, quick=True)
        tep = run_episode(w, CANONICAL_SEED, trace=True, quick=True)
        for e in (ep, tep):
            _, failed, reasons = episode_failures(e)
            if failed:
                problems += [f"{w}: {r}" for r in reasons]
        if ep["record"] is None or tep["record"] is None:
            continue
        digest = ep["record"]["digest"]
        golden["quick"][w] = digest
        if tep["record"]["digest"] != digest:
            problems.append(f"{w}: traced digest differs from untraced")
        if not args.record_goldens and \
                expected.get("quick", {}).get(w) != digest:
            problems.append(f"{w}: digest {digest} differs from expected.json")
        emitted = dict(end_to_end_values(ep))
        emitted.update(layer_values(tep["record"],
                                    ep["record"]["spans"]["loop"][1] * 1e-9))
        for m in spec["end_to_end"] + spec["per_layer"]:
            if m["name"] not in emitted:
                problems.append(f"{w}: metric {m['name']} not emitted")
        print(f"{w}: digest {digest}, traced digest "
              f"{tep['record']['digest']}, wall {ep['wall_s']:.3f} s")
    if args.record_goldens:
        for w in golden["quick"]:
            ep = run_episode(w, CANONICAL_SEED)
            golden["full"][w] = ep["record"]["digest"] if ep["record"] else None
        with open(EXPECTED, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
    elapsed = time.perf_counter() - t0
    for p in problems:
        print(f"FAIL {p}")
    print(f"quick self-test: {'FAIL' if problems else 'PASS'} "
          f"in {elapsed:.1f} s")
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=CANONICAL_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--record-goldens", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.runs < 1:
        raise SystemExit("error: --seed must be >= 0 and --runs >= 1")
    if args.quick:
        return cmd_quick(args)
    return cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
