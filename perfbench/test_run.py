"""Unit tests of the benchmark's own code: percentiles from raw samples,
span self times, and the printed metric names against BENCHMARK.json.

    python3 perfbench/test_run.py
"""

import json
import math
import re
import unittest
from pathlib import Path

import run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def fake_raw(trace):
    """A minimal runner record, shaped like mosaic_bench's output."""
    spans = [
        ["bench.clip", 0.0, 1.0, -1],
        ["litho.kernels.build", 0.0, 0.6, 0],
        ["opc.optimize", 0.6, 0.9, 0],
        ["eval.evaluate", 0.9, 0.95, 0],
    ] if trace else []
    return {
        "samples": {"setup_s": [0.5, 0.7, 0.6], "pass_s": [1.0],
                    "unit_ms": [900.0, 1000.0], "traced.unit_ms": [1010.0],
                    "litho.kernels.build_ms": [600.0]},
        "values": {"passes": 1, "cpu_window_s": 3.0, "peak_rss_mb": 30.0,
                   "epe_violations": 4, "pvband_nm2": 1000.0,
                   "traced.window_start": 0.0, "traced.window_s": 1.0},
        "spans": spans,
    }


class PercentileTest(unittest.TestCase):
    def test_linear_between_closest_ranks(self):
        xs = [float(i) for i in range(1, 11)]  # 1..10
        self.assertEqual(run.percentile(xs, 50), (5.5, 10))
        self.assertAlmostEqual(run.percentile(xs, 90)[0], 9.1)
        self.assertEqual(run.percentile(xs, 0), (1.0, 10))
        self.assertEqual(run.percentile(xs, 100), (10.0, 10))

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), (2.0, 3))

    def test_not_on_bucket_edges(self):
        # A power-of-two histogram would report 1024 or 2048 here.
        value, n = run.percentile([1100.0, 1200.0, 1300.0], 50)
        self.assertEqual((value, n), (1200.0, 3))

    def test_unfinished_samples_sort_last(self):
        value, n = run.percentile([1.0, 2.0, None], 100)
        self.assertTrue(math.isinf(value))
        self.assertEqual(n, 3)
        self.assertEqual(run.percentile([1.0, 2.0, None], 0)[0], 1.0)

    def test_empty(self):
        self.assertEqual(run.percentile([], 50), (0.0, 0))


class SpanTest(unittest.TestCase):
    def test_union_length_merges_and_clips(self):
        self.assertAlmostEqual(
            run.union_length([(0, 2), (1, 3), (5, 6)], 0, 10), 4.0)
        self.assertAlmostEqual(run.union_length([(0, 2), (1, 3)], 1, 2), 1.0)

    def test_self_times_sum_to_root_duration(self):
        spans = fake_raw(True)["spans"]
        self_times = run.span_self_times(spans)
        self.assertAlmostEqual(self_times[0], 0.05)
        self.assertAlmostEqual(sum(self_times), 1.0)

    def test_self_frac_per_module(self):
        metrics = run.per_layer_metrics(fake_raw(True))
        self.assertAlmostEqual(metrics["self_frac.litho"][0], 0.6)
        self.assertAlmostEqual(metrics["self_frac.bench"][0], 0.05)
        self.assertAlmostEqual(metrics["trace.covered_frac"][0], 1.0)
        self.assertAlmostEqual(metrics["trace.overhead_frac"][0],
                               1010.0 / 950.0 - 1.0)


class MetricNamesTest(unittest.TestCase):
    def check_names(self, printed, declared):
        self.assertEqual(list(printed), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(printed[m["name"]][2], m["unit"], m["name"])

    def test_end_to_end_names_match_benchmark_json(self):
        self.check_names(run.end_to_end_metrics(fake_raw(False)),
                         BENCHMARK["end_to_end"])

    def test_per_layer_names_match_benchmark_json(self):
        self.check_names(run.per_layer_metrics(fake_raw(True)),
                         BENCHMARK["per_layer"])

    def test_end_to_end_values(self):
        metrics = run.end_to_end_metrics(fake_raw(False))
        self.assertEqual(metrics["setup_s"][:2], (0.6, 3))
        self.assertEqual(metrics["job_p50_ms"][:2], (950.0, 2))
        self.assertEqual(metrics["cpu_s"][0], 3.0)

    def test_benchmark_json_shape(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in
                 BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
        for m in BENCHMARK["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCHMARK["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
