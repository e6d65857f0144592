"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a source checkout.  The pbtool tests build the
repository and pbtool first (into .bench_build), as perfbench/run.py does.
"""

import contextlib
import filecmp
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import compare  # noqa: E402  (perfbench/compare.py)
import run  # noqa: E402  (perfbench/run.py)


def span(span_id, parent, name, ts, dur, **counts):
    args = {"id": span_id, "parent": parent, "model": -1, "job": -1}
    args.update(counts)
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "args": args}


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_trace(self):
        events = [
            span(0, -1, "root", 0.0, 100.0),
            span(1, 0, "a", 10.0, 30.0),   # [10, 40)
            span(2, 1, "a.child", 15.0, 5.0),
            span(3, 0, "b", 30.0, 30.0),   # [30, 60), overlaps a
            span(4, 0, "c", 90.0, 30.0),   # [90, 120), runs past root
            span(5, 0, "d", 70.0, 0.0),    # zero-length
        ]
        own = run.self_times(events)
        # root: covered by [10, 60) and [90, 100) -> 100 - 50 - 10.
        self.assertAlmostEqual(own[0], 40.0)
        self.assertAlmostEqual(own[1], 25.0)
        self.assertAlmostEqual(own[2], 5.0)
        self.assertAlmostEqual(own[3], 30.0)
        self.assertAlmostEqual(own[4], 30.0)
        self.assertAlmostEqual(own[5], 0.0)

    def test_nested_children_in_any_order(self):
        events = [
            span(0, -1, "root", 0.0, 10.0),
            span(2, 0, "late", 6.0, 2.0),
            span(1, 0, "early", 1.0, 2.0),
        ]
        self.assertAlmostEqual(run.self_times(events)[0], 6.0)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.50), 50)
        self.assertEqual(run.percentile(values, 0.99), 99)
        self.assertEqual(run.percentile([7], 0.99), 7)


class InputsTest(unittest.TestCase):
    def test_reference_sample_repeats_per_seed(self):
        for workload in run.WORKLOADS:
            first = run.reference_sample(workload, 7, 16384)
            self.assertEqual(first, run.reference_sample(workload, 7, 16384))
            self.assertNotEqual(first, run.reference_sample(workload, 8, 16384))
            self.assertEqual(len(set(first)), len(first))
            self.assertTrue(all(0 <= job < 16384 for job in first))

    def test_first_scenario(self):
        self.assertEqual(
            run.first_scenario("np=1..64 nodes=1..16 ppn=1..16 nt=1..4"),
            "np=1 nodes=1 ppn=1 nt=1")
        self.assertEqual(run.first_scenario("np=1,8"), "np=1")
        self.assertEqual(run.first_scenario("np=2..16:*2"), "np=2")


class PassRateTest(unittest.TestCase):
    @staticmethod
    def check(rows=262144, failed_rows=0, checked=1024, mismatches=0,
              expected_checked=1024, expected_mismatches=0):
        return {"rows": rows, "failed_rows": failed_rows, "checked": checked,
                "mismatches": mismatches, "expected_checked": expected_checked,
                "expected_mismatches": expected_mismatches}

    def test_clean_run_is_one(self):
        self.assertEqual(run.pass_rate(self.check()), 1.0)

    def test_a_failing_reference_check_shows_on_a_large_grid(self):
        self.assertEqual(run.pass_rate(self.check(
            mismatches=1024, expected_mismatches=1024)), 0.0)
        self.assertAlmostEqual(run.pass_rate(self.check(
            checked=64, expected_checked=0, mismatches=64)), 0.0)
        self.assertAlmostEqual(run.pass_rate(self.check(
            checked=64, expected_checked=0, mismatches=8)), 0.875)

    def test_failed_rows_count(self):
        self.assertAlmostEqual(run.pass_rate(self.check(
            rows=400, failed_rows=40, checked=100, expected_checked=0,
            mismatches=10)), 0.9 * 0.9)


class CompareTest(unittest.TestCase):
    LOWER = {"better": "lower", "bound": 0.1}

    def test_steady_sides_judged_by_median(self):
        base = [1.00, 1.01, 1.02, 0.99, 1.00]
        self.assertEqual(compare.verdict(self.LOWER, base, base), "ok")
        worse = [v * 1.2 for v in base]
        self.assertEqual(compare.verdict(self.LOWER, base, worse), "worse")
        better = [v * 0.8 for v in base]
        self.assertEqual(compare.verdict(self.LOWER, base, better), "better")
        self.assertEqual(compare.verdict(None, base, worse), "")

    def test_wide_overlapping_sides_are_unresolved(self):
        base = [1.0, 1.3, 0.8, 1.1, 0.9]  # spread 0.25 > bound
        same = [1.05, 1.25, 0.85, 1.1, 0.95]
        self.assertEqual(compare.verdict(self.LOWER, base, same),
                         "unresolved")
        self.assertEqual(compare.verdict(
            self.LOWER, base, [v * 1.08 for v in base]), "unresolved")

    def test_wide_but_separated_sides_are_judged(self):
        base = [1.0, 1.3, 0.8, 1.1, 0.9]
        self.assertEqual(compare.verdict(
            self.LOWER, base, [v + 1.0 for v in base]), "worse")
        self.assertEqual(compare.verdict(
            self.LOWER, base, [v - 0.7 for v in base]), "better")
        # Separated but within the bound: better reads ok, worse stays open.
        self.assertEqual(compare.verdict(
            self.LOWER, [0.95, 0.96, 0.97, 1.3, 1.4],
            [0.90, 0.91, 0.92, 0.93, 0.94]), "ok")
        self.assertEqual(compare.verdict(
            self.LOWER, [0.6, 0.7, 0.96, 0.97, 0.98],
            [0.99, 1.0, 1.01, 1.02, 1.03]), "unresolved")
        self.assertEqual(compare.verdict(
            self.LOWER, [1.0, 1.1, 1.2, 1.3], [1.31, 1.32, 1.33, 1.34]),
            "worse")
        higher = {"better": "higher", "bound": 0.1}
        self.assertEqual(compare.verdict(
            higher, base, [v + 1.0 for v in base]), "better")

    def test_incorrect_records_are_failures(self):
        record = {"meta": {"workload": "ingest", "seed": 3}, "trace": 0,
                  "correct": True, "failed": 0,
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        bad = dict(record, correct=False, failed=2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.jsonl"
            path.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n")
            runs, failures = compare.load(path)
            self.assertEqual(runs[("ingest", "setup_s")], [1.0, 1.0])
            self.assertEqual(len(failures), 1)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(
                    compare.main(["compare", str(path), str(path)]), 1)
            self.assertIn("FAILED", out.getvalue())


class ToolTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        threads = min(len(os.sched_getaffinity(0)), 4)
        cls.prophetc, cls.tool = run.build(Path.cwd(), threads)
        cls.scratch = tempfile.TemporaryDirectory(dir=Path.cwd())
        cls.dir = Path(cls.scratch.name)

    @classmethod
    def tearDownClass(cls):
        cls.scratch.cleanup()

    def ingest(self, seed, name):
        out = self.dir / name
        run.run_tool(self.tool, ["ingest", "--seed", str(seed), "--count",
                                 "3", "--size", "40", "--out", str(out)])
        return out

    def test_ingest_models_are_byte_identical_per_seed(self):
        a = self.ingest(5, "a")
        b = self.ingest(5, "b")
        c = self.ingest(6, "c")
        names = sorted(p.name for p in a.iterdir())
        self.assertEqual(len(names), 3)
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        self.assertEqual((mismatch, errors), ([], []))
        match, mismatch, errors = filecmp.cmpfiles(a, c, names, shallow=False)
        self.assertEqual(len(mismatch), 3)

    def check(self, *values):
        """Checks one CSV whose rows all hold the same scenario."""
        csv = self.dir / "one.csv"
        csv.write_text("job,model,np,nn,ppn,nt,cpu_speed,ok,predicted_s\n" +
                       "".join(f"{job},@synthetic,3,1,1,1,1,1,{value}\n"
                               for job, value in enumerate(values)))
        sample = self.dir / "sample.txt"
        sample.write_text("".join(f"{job}\n" for job in range(len(values))))
        expected = self.dir / "expected.txt"
        result = run.run_tool(self.tool, [
            "check", "--csv", str(csv), "--mode", "analytic", "--sample",
            str(sample), "--write-expected", str(expected)])
        line = expected.read_text().splitlines()[-1]
        return result["mismatches"], float(line.rsplit("|", 1)[1])

    def test_check_compares_at_csv_precision(self):
        mismatches, reference = self.check("1")
        self.assertEqual(mismatches, 1)
        # This scenario's prediction needs 17 digits to round-trip.
        short = format(reference, ".12g")
        self.assertNotEqual(float(short), reference)
        # Today's 12-digit CSV and a shortest round-trip CSV both pass.
        self.assertEqual(self.check(short)[0], 0)
        self.assertEqual(self.check(repr(reference))[0], 0)
        # Off in the tenth digit fails a 12-digit CSV.
        off = format(reference * (1 + 3e-10), ".12g")
        self.assertNotEqual(off, short)
        self.assertEqual(self.check(off)[0], 1)
        # In a round-trip CSV (some value carries 17 digits) every value is
        # exact, so one unit in the last place fails.
        ulp = repr(math.nextafter(reference, 0.0))
        self.assertEqual(self.check(repr(reference), ulp)[0], 1)

    def test_refuses_a_directory_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=self.dir) as empty:
            done = subprocess.run(
                [sys.executable, str(HERE.parent / "run.py"), "--workload",
                 "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
