#!/usr/bin/env python3
"""Unit tests of tools/perf_report.py on synthetic inputs; no scenario or
benchmark runs.

  python3 tests/unit/test_perf_report.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from argparse import Namespace
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.dont_write_bytecode = True
sys.path.insert(0, str(REPO / "tools"))
import perf_report  # noqa: E402
import run  # noqa: E402  benchmark/run.py, on the path perf_report sets

# (baseline runs, current runs, the verdict the rule must give).
CASES = {
    "disjoint": ([1.00, 1.02, 1.01, 0.99, 1.03],
                 [0.80, 0.81, 0.79, 0.82, 0.80], "faster"),
    "disjoint_slower": ([0.80, 0.81, 0.79, 0.82, 0.80],
                        [1.00, 1.02, 1.01, 0.99, 1.03], "slower"),
    "overlapping": ([1.00, 1.10, 0.90, 1.05, 0.95],
                    [0.92, 1.00, 0.88, 0.97, 0.90], "noise"),
    # Disjoint ranges, but the baseline's IQR share (0.75) exceeds the
    # 65% gain in medians: a min-max rule would call this faster.
    "wide_spread": ([1.0, 1.5, 2.0, 2.5, 3.0],
                    [0.50, 0.60, 0.70, 0.80, 0.95], "noise"),
}


def compare_improves(a, b, metric, workdir):
    """Whether benchmark/run.py compare rates B's runs "improved" over A's
    (its spread file goes to `workdir`, not into benchmark/)."""
    paths = []
    for name, runs in (("a", a), ("b", b)):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as f:
            json.dump({"workloads": {"fanout_full": [
                {"metrics": {metric: {"value": v}}} for v in runs]}}, f)
        paths.append(path)
    run.SPREAD = Path(workdir) / "spread.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.cmd_compare(Namespace(a=paths[0], b=paths[1]))
    row = [line for line in out.getvalue().splitlines()
           if line.startswith(metric + " ")]
    return row[0].rsplit(None, 1)[-1] == "improved"


class VerdictIsRunPyComparesRule(unittest.TestCase):
    def test_every_case(self):
        with tempfile.TemporaryDirectory() as tmp:
            for case, (base, cur, expected) in CASES.items():
                # wall_s is lower-better.  deliveries_per_s is fed the
                # reciprocals (the better side stays the same, the spreads
                # change), higher-better.
                _, word = perf_report.verdict(base, cur)
                self.assertEqual(word, expected, case)
                for metric, lower, b, c in (
                        ("wall_s", True, base, cur),
                        ("deliveries_per_s", False,
                         [1 / v for v in base], [1 / v for v in cur])):
                    _, word = perf_report.verdict(b, c, lower)
                    self.assertEqual(word == "faster",
                                     compare_improves(b, c, metric, tmp),
                                     (case, metric))
                    self.assertEqual(word == "slower",
                                     compare_improves(c, b, metric, tmp),
                                     (case, metric))


# Each entry's base time per group: scenario legs and workloads in s,
# micro benchmarks in ns/op.  Three per group, so that a group's median
# ratio is one an unchanged entry reads.
LEGS = {"leg": 1.0, "ladder": 2.0, "tail": 0.3}
WORKLOADS = {"fanout_full": 0.2, "hybrid_1m": 0.15, "churn_sessions": 0.18}
MICROS = {"BM_A": 100.0, "BM_B": 50.0, "BM_C": 10.0}
NAMES = (*LEGS, *WORKLOADS, *MICROS)
TIGHT = (0.98, 1.0, 1.02)  # an IQR share of 0.04


def measurement(factors, shapes=None):
    """A measurement set whose entries each take their factor times their
    base time, runs shaped by TIGHT or by `shapes[name]`."""
    shapes = shapes or {}

    def runs(name, base):
        return {"runs": [base * factors[name] * k
                         for k in shapes.get(name, TIGHT)]}

    return {
        "scenarios": {n: {"wall_s": runs(n, b)} for n, b in LEGS.items()},
        "workloads": {n: {"end_to_end": {"wall_s": runs(n, b)}}
                      for n, b in WORKLOADS.items()},
        "micro": {n: {"ns_per_op": runs(n, b)} for n, b in MICROS.items()},
    }


def unchanged(**factors):
    return {**dict.fromkeys(NAMES, 1.0), **factors}


class CheckNormalisesMachineSpeed(unittest.TestCase):
    report = {"schema": perf_report.SCHEMA, "current": measurement(unchanged())}

    def check(self, factors, shapes=None, report=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            perf_report.check(report or self.report,
                              measurement(factors, shapes))
        return out.getvalue()

    def test_a_uniformly_slower_machine_passes(self):
        self.check(dict.fromkeys(NAMES, 2.0))

    def test_each_group_is_normalised_on_its_own(self):
        # run.py corrects the workloads' wall_s for host speed, the legs'
        # raw wall-clocks are not: a 2x slower runner moves only the legs.
        self.check(unchanged(**dict.fromkeys(LEGS, 2.0),
                             **dict.fromkeys(MICROS, 2.0)))

    def test_one_entry_reading_fast_does_not_flag_the_others(self):
        self.check(unchanged(tail=0.6, fanout_full=0.6, BM_C=0.3))

    def test_one_wall_clock_1_4x_slower_fails(self):
        for slow in ("leg", "fanout_full"):
            factors = dict.fromkeys(NAMES, 2.0)
            factors[slow] = 2.8
            with self.assertRaises(SystemExit, msg=slow):
                self.check(factors)

    def test_micro_benchmarks_get_the_looser_bound(self):
        factors = dict.fromkeys(NAMES, 2.0)
        factors["BM_A"] = 2.8
        self.check(factors)
        factors["BM_A"] = 3.4
        with self.assertRaises(SystemExit):
            self.check(factors)

    def test_a_wide_spread_entry_is_unresolved_unless_every_run_is_worse(self):
        wide = (0.6, 1.0, 1.4)  # an IQR share of 0.8
        report = {"schema": perf_report.SCHEMA,
                  "current": measurement(unchanged(), {"leg": wide})}
        out = self.check(unchanged(leg=1.4), {"leg": wide}, report)
        self.assertIn("leg: committed", out)
        self.assertIn("unresolved", out)
        with self.assertRaises(SystemExit):
            self.check(unchanged(leg=1.5), {"leg": (1.0, 1.01, 1.02)}, report)

    def test_a_wall_clock_missing_from_the_report_stops_the_gate(self):
        for group, name in (("scenarios", "leg"),
                            ("workloads", "fanout_full")):
            report = {"schema": perf_report.SCHEMA,
                      "current": measurement(unchanged())}
            del report["current"][group][name]
            with self.assertRaises(SystemExit, msg=name) as stop:
                self.check(unchanged(), report=report)
            self.assertIn("re-run perf_report and commit it",
                          str(stop.exception.code))

    def test_a_micro_missing_from_the_report_is_listed_not_gated(self):
        report = {"schema": perf_report.SCHEMA,
                  "current": measurement(unchanged())}
        del report["current"]["micro"]["BM_C"]
        out = self.check(unchanged(BM_C=5.0), report=report)
        self.assertIn("BM_C: not in the committed report", out)


class IncorrectResultAbortsTheReport(unittest.TestCase):
    def test_correct_false_writes_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree, build = Path(tmp, "tree"), Path(tmp, "build")
            (tree / "benchmark").mkdir(parents=True)
            build.mkdir()
            (build / "CMakeCache.txt").write_text(
                f"CMAKE_HOME_DIRECTORY:INTERNAL={tree}\n")
            calls = Path(tmp, "calls")
            # run.py --workload exits 0 even when a digest differs.
            (tree / "benchmark" / "run.py").write_text(
                "import json, sys\n"
                f"open({str(calls)!r}, 'a').write(' '.join(sys.argv) + '\\n')\n"
                "print(json.dumps({'correct': False, 'attempted': 4,\n"
                "                  'failed': 1, 'metrics': {}}))\n")
            report = Path(tmp, "report.json")
            report.write_text("{}\n")
            with self.assertRaises(SystemExit) as stop:
                perf_report.main(["--build-dir", str(build),
                                  "--output", str(report), "--repeats", "2"])
            self.assertIn("not correct", str(stop.exception.code))
            self.assertEqual(report.read_text(), "{}\n")
            self.assertEqual(len(calls.read_text().splitlines()), 1)


if __name__ == "__main__":
    unittest.main()
