"""Self-test of the benchmark harness, at tiny input sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks the span arithmetic on hand-made spans, then runs every workload
shrunk to a few seconds, untraced and traced, and checks that each metric
BENCHMARK.json names is emitted with its unit and no other.
"""

from __future__ import annotations

import json
import math
import unittest
from pathlib import Path

import run
from tracing import Span, layer_metrics, scaling_exponents, self_times

REPO = Path.cwd()


def span(name, start, end, parent=None, root=0, **counts):
    return Span(name, start, end, parent, root, counts=counts)


class SpanArithmetic(unittest.TestCase):
    def test_overlapping_children_are_not_counted_twice(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 4.0, parent=0),
                 span("b", 3.0, 6.0, parent=0),     # overlaps a on [3, 4]
                 span("c", 8.0, 12.0, parent=0),    # runs past the parent
                 span("a.x", 1.5, 2.0, parent=1)]
        own = self_times(spans)
        # covered: [1, 6] and [8, 10] -> 7 of the root's 10 seconds
        self.assertAlmostEqual(own[0], 3.0)
        self.assertAlmostEqual(own[1], 2.5)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertTrue(all(t >= 0 for t in own))

    def test_self_times_of_nested_spans_add_up_to_the_root(self):
        spans = [span("root", 0.0, 9.0),
                 span("a", 1.0, 5.0, parent=0),
                 span("a.x", 2.0, 3.0, parent=1),
                 span("a.y", 3.0, 4.5, parent=1),
                 span("b", 6.0, 8.0, parent=0)]
        self.assertAlmostEqual(sum(self_times(spans)), 9.0)

    def test_run_pdr_self_time_excludes_its_stages(self):
        spans = [span("op.track", 0.0, 10.0),
                 span("pdr.run_pdr", 1.0, 9.0, parent=0),
                 span("sensors.detect_steps", 1.0, 2.0, parent=1, steps=1000),
                 span("pdr.match_landmark", 3.0, 3.5, parent=1, offered=1, matched=1),
                 span("pdr.match_landmark", 4.0, 4.5, parent=1, offered=1, matched=0)]
        m = layer_metrics(spans, 1)
        self.assertAlmostEqual(m["pdr.run_pdr_self_s"], 6.0)
        self.assertAlmostEqual(m["pdr.run_pdr_us_per_step"], 6000.0)
        self.assertAlmostEqual(m["pdr.match_ratio"], 0.5)
        self.assertAlmostEqual(m["pdr.match_landmark_s"], 1.0)

    def test_scaling_exponent(self):
        short = {"pdr.run_pdr_self": 0.01, "sensors.load_trace": 0.1}
        long = {"pdr.run_pdr_self": 4.0, "sensors.load_trace": 2.0}
        exps = scaling_exponents(short, long, 1000, 20000)
        self.assertAlmostEqual(exps["pdr.run_pdr_self_exponent"], 2.0)
        self.assertAlmostEqual(exps["sensors.load_trace_exponent"], 1.0)
        self.assertEqual(exps["scaling.stages_over_1_3"], 1)


class TinyRuns(unittest.TestCase):
    """Each workload, shrunk, through the same code the benchmark runs."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        cls.units = {
            False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def check(self, workload: str, trace: bool) -> None:
        res = run.run(REPO, workload, seed=5, seconds=0, trace=trace, tiny=True)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        emitted = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(emitted, self.units[trace])
        for name, m in res["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_every_workload_untraced(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                self.check(w, trace=False)

    def test_every_workload_traced(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                self.check(w, trace=True)


if __name__ == "__main__":
    run.load_program(REPO)
    unittest.main(verbosity=2)
