"""Tests of run.py's steadiness statistics and metric-set check.

Run from the repository root:  python3 -m unittest perfbench/test_run.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, med, q3, iqr, rng = run.spread(values)
        want_q1, _, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (want_q1, want_q3))
        self.assertEqual(med, statistics.median(values))
        self.assertAlmostEqual(iqr, (want_q3 - want_q1) / med)
        self.assertAlmostEqual(rng, (13.0 - 9.0) / med)

    def test_known_values(self):
        # quantiles([1..9], n=4) with the exclusive method: 2.5, 5, 7.5.
        q1, med, q3, iqr, rng = run.spread([float(v) for v in range(1, 10)])
        self.assertEqual((q1, med, q3), (2.5, 5.0, 7.5))
        self.assertAlmostEqual(iqr, 1.0)
        self.assertAlmostEqual(rng, 8.0 / 5.0)

    def test_identical_runs_have_no_spread(self):
        _, med, _, iqr, rng = run.spread([4.2] * 10)
        self.assertEqual((med, iqr, rng), (4.2, 0.0, 0.0))

    def test_zero_median_reports_zero_spread(self):
        _, med, _, iqr, rng = run.spread([0.0, 0.0, 0.0, 1.0])
        self.assertEqual((med, iqr, rng), (0.0, 0.0, 0.0))


class CheckMetricsTest(unittest.TestCase):
    SPEC = {
        "end_to_end": [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}],
        "per_layer": [{"name": "c", "unit": "ns"}],
    }

    def result(self, metrics):
        return {"metrics": {n: {"value": 1.0, "unit": u}
                            for n, u in metrics.items()}}

    def test_exact_set_passes(self):
        self.assertTrue(run.check_metrics(
            self.result({"a": "s", "b": "ms"}), self.SPEC, trace=False))
        self.assertTrue(run.check_metrics(
            self.result({"c": "ns"}), self.SPEC, trace=True))

    def test_missing_extra_or_wrong_unit_fails(self):
        self.assertFalse(run.check_metrics(
            self.result({"a": "s"}), self.SPEC, trace=False))
        self.assertFalse(run.check_metrics(
            self.result({"a": "s", "b": "ms", "c": "ns"}), self.SPEC,
            trace=False))
        self.assertFalse(run.check_metrics(
            self.result({"a": "s", "b": "s"}), self.SPEC, trace=False))


if __name__ == "__main__":
    unittest.main()
