"""Self-tests for the benchmark's helpers (perfbench/metrics.py).

    python3 perfbench/run.py --self-test
"""

import math
import statistics
import unittest

import metrics as m


class PercentileRule(unittest.TestCase):
    def test_tail_level_leaves_ten_samples_beyond(self):
        for n in range(100, 5000, 37):
            level = m.tail_level(n)
            self.assertIsNotNone(level)
            self.assertGreaterEqual(n - m.nearest_rank(n, level), m.MIN_BEYOND)
            higher = [lv for lv in m.TAIL_LEVELS if lv > level]
            for lv in higher:
                self.assertLess(n - m.nearest_rank(n, lv), m.MIN_BEYOND)

    def test_paper_budget_gap_counts_report_p95(self):
        # 300 - 20 and 470 - 20 model-based proposals.
        self.assertEqual(m.tail_level(280), 95.0)
        self.assertEqual(m.tail_level(450), 95.0)
        self.assertEqual(m.tail_level(1000), 99.0)
        self.assertEqual(m.tail_level(999), 95.0)

    def test_too_few_samples_support_no_tail(self):
        self.assertIsNone(m.tail_level(50))
        with self.assertRaises(ValueError):
            m.tail(list(range(50)))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(m.percentile(values, 50.0), 50)
        self.assertEqual(m.percentile(values, 95.0), 95)
        self.assertEqual(m.percentile(values[::-1], 99.0), 99)
        self.assertEqual(m.tail(list(range(1, 1001))), (99.0, 990))


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(m.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(m.quartile_spread([3.0] * 10), 0.0)

    def test_scale_free(self):
        values = [1.0, 1.2, 0.9, 1.1, 1.05]
        self.assertAlmostEqual(m.quartile_spread(values),
                               m.quartile_spread([v * 1e3 for v in values]))


class RatioWithBase(unittest.TestCase):
    def test_states_both_operands_and_the_ratio(self):
        value, text = m.ratio_text("acq.maximize_s", 6.5, "run_wall_s", 8.0,
                                   "s")
        self.assertAlmostEqual(value, 0.8125)
        self.assertEqual(text,
                         "acq.maximize_s / run_wall_s = 6.5 s / 8 s = 0.812")

    def test_zero_base_is_zero_not_an_error(self):
        value, text = m.ratio_text("io.checkpoint_s", 0.0, "exec", 0.0, "s")
        self.assertEqual(value, 0.0)
        self.assertIn("= 0.000", text)


def _stream(n=40, dim=3):
    xs = [[(i * 0.37 + j * 0.11) % 1.0 for j in range(dim)] for i in range(n)]
    ys = [-sum(v * v for v in x) for x in xs]
    return xs, ys


class BoChecks(unittest.TestCase):
    LOWER, UPPER = [0.0] * 3, [1.0] * 3

    def check(self, xs, ys, budget=40, best=None):
        best = max(ys) if best is None else best
        return m.check_bo_stream(xs, ys, self.LOWER, self.UPPER, budget, best)

    def test_clean_stream_passes(self):
        xs, ys = _stream()
        self.assertEqual(self.check(xs, ys), [])

    def test_out_of_bounds_point_fails(self):
        xs, ys = _stream()
        xs[7][1] = 1.0 + 1e-12
        self.assertTrue(any("outside" in f for f in self.check(xs, ys)))

    def test_exact_duplicate_fails(self):
        xs, ys = _stream()
        xs[9] = list(xs[3])
        self.assertTrue(any("duplicates" in f for f in self.check(xs, ys)))

    def test_short_stream_fails(self):
        xs, ys = _stream(39)
        self.assertTrue(any("budget" in f for f in self.check(xs, ys)))

    def test_wrong_best_fails(self):
        xs, ys = _stream()
        self.assertTrue(self.check(xs, ys, best=max(ys) + 1.0))

    def test_non_finite_value_fails(self):
        xs, ys = _stream()
        ys[4] = math.nan
        self.assertTrue(self.check(xs, ys, best=0.0))

    def test_stream_hash_sees_a_one_ulp_perturbation(self):
        xs, _ = _stream()
        perturbed = [list(x) for x in xs]
        perturbed[20][0] = math.nextafter(perturbed[20][0], 2.0)
        self.assertEqual(m.stream_hash(xs), m.stream_hash([list(x)
                                                           for x in xs]))
        self.assertNotEqual(m.stream_hash(xs), m.stream_hash(perturbed))
        swapped = [list(x) for x in xs]
        swapped[1], swapped[2] = swapped[2], swapped[1]
        self.assertNotEqual(m.stream_hash(xs), m.stream_hash(swapped))


class ServeChecks(unittest.TestCase):
    def test_diverged_stream_fails(self):
        verify = {"sessions": 64, "proposals": 900, "mismatched": 1}
        self.assertTrue(m.check_serve(verify, []))

    def test_only_budget_exhaustion_errors_are_allowed(self):
        verify = {"sessions": 64, "proposals": 900, "mismatched": 0}
        self.assertEqual(m.check_serve(verify, [
            "SUGGEST s1: ERR s1: budget exhausted (40 of 40)"]), [])
        self.assertTrue(m.check_serve(verify, [
            "SUGGEST s1: ERR busy (admission queue full)"]))


class Attribution(unittest.TestCase):
    def test_merge_and_cover(self):
        union = m.merge([(3, 4), (0, 1), (0.5, 2)])
        self.assertEqual(union, [[0, 2], [3, 4]])
        self.assertAlmostEqual(m.covered(union, 1, 3.5), 1.5)
        self.assertEqual(m.covered(union, 2, 3), 0.0)

    def test_gap_self_excludes_child_spans_and_ignores_other_clocks(self):
        gaps = [(0.0, 1.0), (2.0, 4.0)]
        spans = [
            ("acq_maximize", 0.1, 0.6),
            ("hyper_refit", 2.0, 2.5),
            ("checkpoint", 3.0, 3.25),
            ("objective_eval", 0.0, 100.0),  # another clock: never counted
            ("init_design", 0.0, 4.0),       # container span
            ("executor_wait", 0.7, 0.8),     # the bo layer's own pump
        ]
        self_s, total = m.gap_self(gaps, spans)
        self.assertAlmostEqual(total, 3.0)
        self.assertAlmostEqual(self_s, 3.0 - 0.5 - 0.5 - 0.25)

    def test_span_totals_respect_the_window(self):
        spans = [("checkpoint", 0.0, 1.0), ("checkpoint", 5.0, 5.5),
                 ("acq_maximize", 6.0, 6.25)]
        self.assertEqual(m.span_totals(spans, (4.0, 7.0)),
                         {"checkpoint": 0.5, "acq_maximize": 0.25})
        self.assertEqual(m.span_totals(spans)["checkpoint"], 1.5)


if __name__ == "__main__":
    unittest.main()
