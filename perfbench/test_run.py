"""Tests of the steadiness summary in run.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

from run import summarize


def runs(name, values, unit="s"):
    return [{"metrics": {name: {"value": v, "unit": unit}}} for v in values]


class SummarizeTest(unittest.TestCase):
    def test_quartiles_and_spread_follow_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        [row] = summarize(runs("work_s", values), {"work_s": 0.25})
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((row["q1"], row["q3"]), (q1, q3))
        self.assertEqual(row["median"], statistics.median(values))
        self.assertEqual((row["min"], row["max"]), (9.0, 11.0))
        self.assertAlmostEqual(row["spread"], (q3 - q1) / statistics.median(values))
        self.assertFalse(row["flagged"])

    def test_spread_above_a_third_of_the_bound_is_flagged(self):
        values = [80.0, 90.0, 100.0, 110.0, 120.0]
        [row] = summarize(runs("e2e_p99_us", values, "us"), {"e2e_p99_us": 0.25})
        # Exclusive quartiles 85 and 115: IQR 30 over median 100.
        self.assertAlmostEqual(row["spread"], 0.3)
        self.assertTrue(row["flagged"])
        [row] = summarize(runs("e2e_p99_us", [98.0, 99.0, 100.0, 101.0, 102.0], "us"),
                          {"e2e_p99_us": 0.25})
        self.assertFalse(row["flagged"])

    def test_setup_time_is_held_to_a_tenth_of_its_median_only(self):
        values = [1.0, 1.03, 1.06, 1.09, 1.12]
        [row] = summarize(runs("setup_s", values), {"setup_s": 0.25})
        self.assertLess(row["spread"], 0.1)
        self.assertGreater(row["spread"], 0.25 / 3)
        self.assertFalse(row["flagged"])

    def test_exact_metrics_have_zero_spread_and_absent_ones_are_skipped(self):
        rows = summarize(runs("lifetime_sessions", [28.0] * 4, "sessions"),
                         {"lifetime_sessions": 0.01, "work_s": 0.2})
        self.assertEqual([r["metric"] for r in rows], ["lifetime_sessions"])
        self.assertEqual(rows[0]["spread"], 0.0)
        self.assertFalse(rows[0]["flagged"])


if __name__ == "__main__":
    unittest.main()
