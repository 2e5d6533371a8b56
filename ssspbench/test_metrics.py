"""Tests of the benchmark's own arithmetic (metrics.py).

    python3 -m unittest discover -s ssspbench -p 'test_*.py'

run.py also runs them before every measurement."""

import math
import unittest

import metrics as m


class NearestRank(unittest.TestCase):
    def test_picks_the_ceil_rank_sample(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(m.nearest_rank(values, 0.5), 50)
        self.assertEqual(m.nearest_rank(values, 0.9), 90)
        self.assertEqual(m.nearest_rank(values, 0.99), 99)
        self.assertEqual(m.nearest_rank(values, 1.0), 100)
        self.assertEqual(m.nearest_rank([3, 1, 2], 0.5), 2)
        # ceil(0.9 * 7) = 7: the top sample, never an interpolation.
        self.assertEqual(m.nearest_rank([7, 1, 6, 2, 5, 3, 4], 0.9), 7)

    def test_never_above_the_observed_max(self):
        for n in range(1, 60):
            values = [float(i) for i in range(n)]
            for p in (0.5, 0.9, 0.95, 0.99, 1.0):
                self.assertLessEqual(m.nearest_rank(values, p), max(values))

    def test_failures_push_the_tail_up(self):
        lat = m.latencies([0] * 100, [1] * 100, [True] * 98 + [False] * 2)
        self.assertEqual(m.nearest_rank(lat, 0.98), 1)
        self.assertEqual(m.nearest_rank(lat, 0.99), math.inf)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            m.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            m.nearest_rank([1], 0)

    def test_tail_support(self):
        self.assertEqual(m.beyond(1000, 0.99), 10)
        self.assertEqual(m.beyond(100, 0.9), 10)
        self.assertEqual(m.tail_percentile(1000), 0.99)
        self.assertEqual(m.tail_percentile(999), 0.95)
        self.assertEqual(m.tail_percentile(100), 0.9)
        self.assertEqual(m.tail_percentile(30), 0.5)
        m.check_supported(100, 0.9)
        with self.assertRaises(ValueError):
            m.check_supported(99, 0.9)


class Sliced(unittest.TestCase):
    def test_median_over_slices(self):
        values = [1] * 100 + [50] * 100 + [2] * 100
        self.assertEqual(m.sliced(values, 3, m.median), 2)
        self.assertEqual(m.sliced(values, 3, max), 2)
        # A leftover shorter than a slice is dropped.
        self.assertEqual(m.sliced(list(range(10)), 3, min), 3)
        with self.assertRaises(ValueError):
            m.sliced([1, 2], 3, m.median)


class MedianByKey(unittest.TestCase):
    def test_one_slow_sample_per_key_does_not_move_it(self):
        keys = [7, 3, 7, 3, 7, 3]
        walls = [1.0, 2.0, 9.0, 2.5, 1.2, 2.2]
        self.assertEqual(m.median_by_key(keys, walls), {7: 1.2, 3: 2.2})

    def test_failures_count_as_infinite(self):
        out = m.median_by_key([1, 1, 1, 2], [1.0, m.INF, m.INF, 4.0])
        self.assertEqual(out, {1: m.INF, 2: 4.0})


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(m.failure_share(200, 0), 0)
        self.assertEqual(m.failure_share(200, 3), 0.015)
        self.assertEqual(m.failure_share(1, 1), 1)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            m.failure_share(0, 0)
        with self.assertRaises(ValueError):
            m.failure_share(10, 11)
        with self.assertRaises(ValueError):
            m.failure_share(10, -1)

    def test_failed_solve_zeroes_the_harmonic_mean(self):
        self.assertAlmostEqual(m.harmonic_mean([1, 2, 4]), 3 / 1.75)
        self.assertEqual(m.harmonic_mean([1, 0, 4]), 0)


class SelfTime(unittest.TestCase):
    def test_span_minus_child_coverage(self):
        spans = [("short", 10, 10), ("exchange", 12, 3), ("apply", 16, 2),
                 ("solve", 0, 100), ("bucket", 30, 20)]
        self.assertEqual(m.self_times(spans),
                         {"solve": 70, "short": 5, "exchange": 3, "apply": 2,
                          "bucket": 20})

    def test_overlapping_children_counted_once(self):
        # Two children overlapping each other (e.g. identical intervals).
        spans = [("a", 10, 10), ("b", 15, 10), ("p", 0, 40)]
        out = m.self_times(spans)
        self.assertEqual(out["p"], 40 - 15)

    def test_identical_interval_child_recorded_first(self):
        spans = [("inner", 5, 10), ("outer", 5, 10)]
        self.assertEqual(m.self_times(spans), {"inner": 10, "outer": 0})

    def test_waits_are_neither_parents_nor_children(self):
        spans = [("work", 10, 5), ("admission", 0, 30), ("serve_solve", 20, 8)]
        out = m.self_times(spans, frozenset({"admission"}))
        self.assertEqual(out, {"admission": 30, "work": 5, "serve_solve": 8})

    def test_union_length(self):
        self.assertEqual(m.union_length([]), 0)
        self.assertEqual(m.union_length([(0, 5), (3, 8), (10, 12)]), 10)


class RateLadder(unittest.TestCase):
    def test_backlog(self):
        arrive = [0, 1, 2, 3]
        done = [0.5, 5, 2.5, 0]
        ok = [True, True, True, False]
        self.assertEqual(m.backlog_at(3, arrive, done, ok), 2)
        self.assertEqual(m.max_outstanding(arrive, done, ok), 2)

    def test_rung_rule(self):
        fast = [0.01] * 1000
        slow = [0.01] * 980 + [0.5] * 20
        # Latency limit on p99.
        self.assertTrue(m.rung_passes(100, fast, 0, 0.1))
        self.assertFalse(m.rung_passes(100, slow, 0, 0.1))
        # Little's law bound on the backlog left at the rung's end:
        # rate * limit + slack.
        self.assertTrue(m.rung_passes(100, fast, 18, 0.1, slack=8))
        self.assertFalse(m.rung_passes(100, fast, 19, 0.1, slack=8))

    def test_highest_passing_rung_below_the_first_failure(self):
        ok = [0.01] * 1000
        bad = [1.0] * 1000
        rungs = [(400, ok, 0), (100, ok, 0), (200, bad, 0)]
        self.assertEqual(m.sustained_rate(rungs, 0.1), 100)
        self.assertEqual(m.sustained_rate([(100, bad, 0)], 0.1), 0)
        self.assertEqual(m.sustained_rate([(100, ok, 0), (200, ok, 500)],
                                          0.1), 100)


if __name__ == "__main__":
    unittest.main()
