"""Tests for the benchmark's own arithmetic (benchmath.py).

    python3 perfbench/test_benchmath.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchmath  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples: p90 has exactly 10 beyond
        self.assertEqual(benchmath.percentile(values, 90), 90)
        self.assertIsNone(benchmath.percentile(values[:99], 90))  # 9 beyond
        self.assertEqual(benchmath.percentile(values[:20], 50), 10)
        self.assertIsNone(benchmath.percentile(values[:19], 50))

    def test_nearest_rank_ignores_input_order(self):
        values = [float(v) for v in range(128, 0, -1)]
        self.assertEqual(benchmath.percentile(values, 90), 116.0)  # ceil(115.2)
        self.assertEqual(benchmath.percentile(values, 50), 64.0)

    def test_empty(self):
        self.assertIsNone(benchmath.percentile([], 50))


class SpanMath(unittest.TestCase):
    # loop [0, 100): ask [10, 20); workflow [20, 60) holding two device
    # calls [25, 35) and [40, 55); read [60, 90).
    SPANS = [
        ("loop", -1, 0, 100),
        ("solver.ask", 0, 10, 20),
        ("wei.workflow", 0, 20, 60),
        ("devices.camera", 2, 25, 35),
        ("devices.pf400", 2, 40, 55),
        ("imaging.read", 0, 60, 90),
    ]

    def test_nested_self_time(self):
        self.assertEqual(benchmath.self_times(self.SPANS), [20, 10, 15, 10, 15, 30])

    def test_self_time_clips_and_merges_children(self):
        spans = [("p", -1, 0, 10), ("a", 0, 2, 6), ("b", 0, 4, 8), ("c", 0, 9, 12)]
        # children cover [2, 8) and [9, 10) of the parent
        self.assertEqual(benchmath.self_times(spans)[0], 3)

    def test_coverage(self):
        self.assertAlmostEqual(benchmath.coverage(self.SPANS, "loop"), 0.8)
        two_roots = self.SPANS + [("loop", -1, 200, 300), ("solver.ask", 6, 200, 300)]
        self.assertAlmostEqual(benchmath.coverage(two_roots, "loop"), 0.9)
        self.assertEqual(benchmath.coverage([("loop", -1, 5, 5)], "loop"), 0.0)


class LptIdeal(unittest.TestCase):
    def test_hand_worked_cells(self):
        # 3 workers, cells in schedule order:
        #   3.0 -> w0 (3)   2.0 -> w1 (2)   2.0 -> w2 (2)
        #   1.5 -> w1 (3.5) 1.0 -> w2 (3)   1.0 -> w0 (4)  [w0=3, w2=3: lowest index]
        #   0.5 -> w2 (3.5)
        walls = [3.0, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5]
        self.assertEqual(benchmath.lpt_ideal(walls, 3), 4.0)

    def test_order_matters(self):
        # Greedy in the given order, not re-sorted: short cells first leave
        # the long one to finish last.
        self.assertEqual(benchmath.lpt_ideal([1.0, 1.0, 2.0], 2), 3.0)
        self.assertEqual(benchmath.lpt_ideal([2.0, 1.0, 1.0], 2), 2.0)

    def test_fewer_cells_than_workers(self):
        self.assertEqual(benchmath.lpt_ideal([0.7], 3), 0.7)
        self.assertEqual(benchmath.lpt_ideal([], 3), 0.0)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # statistics.quantiles (exclusive): q1 = 2.75, median 5.5, q3 = 8.25
        self.assertAlmostEqual(benchmath.quartile_spread(values), 5.5 / 5.5)


if __name__ == "__main__":
    unittest.main()
