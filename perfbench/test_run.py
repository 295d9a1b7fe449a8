"""Tests of the benchmark's Python side: quartile spread, the regression
rule, and the metric names and units in BENCHMARK.json.

    cd perfbench && python3 -m unittest -q test_run
"""

import json
import os
import re
import unittest

import run
import stability

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        # statistics.quantiles(1..10, n=4) uses the "exclusive" method:
        # q1 = 2.75, q3 = 8.25, median 5.5 -> (8.25 - 2.75) / 5.5 = 1.
        self.assertAlmostEqual(stability.spread(list(range(1, 11))), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stability.spread([4.0] * 10), 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(stability.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(stability.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(stability.worse_by(100, 80, "higher"), 0.20)

    def test_parse_seeds(self):
        self.assertEqual(stability.parse_seeds("3-6"), [3, 4, 5, 6])
        self.assertEqual(stability.parse_seeds("7"), [7])


class SpecTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_names_and_units(self):
        seen = set()
        for group in ("workloads", "end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertRegex(m["name"], NAME)
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
                if "unit" in m:
                    self.assertRegex(m["unit"], UNIT)
                    self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_select_fills_only_per_layer_gaps(self):
        spec = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]
        measured = {"a_ms": {"value": 1.5, "unit": "ms", "samples": 3}}
        self.assertEqual(run.select(spec, measured, fill_missing=True),
                         {"a_ms": {"value": 1.5, "unit": "ms"},
                          "b": {"value": 0, "unit": "count"}})
        with self.assertRaises(run.BenchError):
            run.select(spec, measured, fill_missing=False)
        with self.assertRaises(run.BenchError):
            run.select([{"name": "a_ms", "unit": "s"}], measured, True)


if __name__ == "__main__":
    unittest.main()
