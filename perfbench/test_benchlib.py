#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic (no build needed):

    python3 perfbench/test_benchlib.py
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def kernel_record(want):
    rec = dict(want)
    rec.update(type="kernel", ok=True, quarantined=False, reference_ok=True)
    return rec


def query_record(want, kind="exact", **changes):
    arch = {v: k for k, v in benchlib.MACHINE.items()}[want["machine"]]
    ctx = {v: k for k, v in benchlib.CONTEXT.items()}[want["context"]]
    rec = {"type": "request", "kind": kind, "kernel": want["kernel"],
           "arch": arch, "context": ctx, "n": want["n"], "answered": True,
           "ok": True, "match": {"exact": "exact", "near": "near-n"}[kind],
           "params": want["params"], "best_cycles": want["best_cycles"],
           "default_cycles": want["default_cycles"], "evaluations": 0}
    rec.update(changes)
    return rec


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(99), 50.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(9999), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_p99_refuses_small_samples(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.p99(list(range(999)), "x")
        self.assertEqual(benchlib.p99(list(range(1, 1001)), "x"), 990)

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(benchlib.percentile(values, 50), 3)
        self.assertEqual(benchlib.percentile(values, 100), 5)
        self.assertEqual(benchlib.percentile(values, 1), 1)


class FailureCounting(unittest.TestCase):
    def setUp(self):
        with open(BENCH / "expected" / "serve_mixed.jsonl") as f:
            self.expected = benchlib.load_expected(f)
        self.want = next(iter(self.expected.values()))

    def test_each_wrong_output_counts_once(self):
        good = kernel_record(self.want)
        records = [
            good,
            dict(good, ok=False),
            dict(good, quarantined=True),
            dict(good, reference_ok=False),
            dict(good, params="sv=N"),
            query_record(self.want),
            query_record(self.want, kind="near"),
            query_record(self.want, evaluations=3),
            query_record(self.want, answered=False),
            query_record(self.want, ok=False),
            query_record(self.want, match="near-context"),
            {"type": "batch"},  # not an output: not counted
        ]
        attempted, failed, problems = benchlib.check_run(records, self.expected)
        self.assertEqual(attempted, 11)
        self.assertEqual(failed, 8)
        self.assertEqual(len(problems), 8)

    def test_tune_checks(self):
        tune = query_record(self.want, match="tuned", evaluations=9,
                            reference_ok=True)
        tune["kind"] = "tune"
        self.assertEqual(benchlib.check_request(tune, self.expected), [])
        for bad in (dict(tune, evaluations=0), dict(tune, reference_ok=False),
                    dict(tune, best_cycles=tune["default_cycles"] + 1),
                    dict(tune, match="exact")):
            self.assertTrue(benchlib.check_request(bad, self.expected))


class MetricCatalogue(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json") as f:
            self.spec = json.load(f)

    def test_names_and_units_are_valid(self):
        for name, (unit, better) in {**benchlib.END_TO_END,
                                     **benchlib.PER_LAYER}.items():
            self.assertRegex(name, benchlib.NAME_RE)
            self.assertRegex(unit, benchlib.UNIT_RE)
            self.assertIn(better, ("lower", "higher"))
        for w in benchlib.WORKLOADS:
            self.assertRegex(w, benchlib.NAME_RE)

    def test_equal_to_benchmark_json(self):
        e2e = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        layer = {m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]}
        self.assertEqual(e2e, benchlib.END_TO_END)
        self.assertEqual(layer, benchlib.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         benchlib.WORKLOADS)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class OutputCheck(unittest.TestCase):
    def test_expected_records_pass_and_altered_ones_fail(self):
        for workload in benchlib.WORKLOADS:
            with open(BENCH / "expected" / ("%s.jsonl" % workload)) as f:
                expected = benchlib.load_expected(f)
            self.assertIn(len(expected), (14, 28))
            records = [kernel_record(w) for w in expected.values()]
            self.assertEqual(benchlib.check_run(records, expected)[1], 0)
            for field, value in (("params", "sv=N ur=1"), ("best_cycles", 1),
                                 ("default_cycles", 1)):
                altered = copy.deepcopy(expected)
                key = next(iter(altered))
                altered[key][field] = value
                attempted, failed, problems = benchlib.check_run(records, altered)
                self.assertEqual(failed, 1, (workload, field))
                self.assertIn(field, problems[0])


if __name__ == "__main__":
    unittest.main()
