"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s paxbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import analysis
import inputs
import run


class PercentileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        self.assertAlmostEqual(analysis.percentile(values, 0.25), q1)
        self.assertAlmostEqual(analysis.percentile(values, 0.5), q2)
        self.assertAlmostEqual(analysis.percentile(values, 0.75), q3)

    def test_ends_and_interpolation(self):
        self.assertEqual(analysis.percentile([3.0], 0.95), 3.0)
        self.assertEqual(analysis.percentile([1.0, 2.0], 0.0), 1.0)
        self.assertEqual(analysis.percentile([1.0, 2.0], 1.0), 2.0)
        self.assertAlmostEqual(analysis.percentile([0.0, 10.0], 0.95), 9.5)
        with self.assertRaises(ValueError):
            analysis.percentile([], 0.5)

    def test_samples_beyond(self):
        values = list(range(1, 201))  # 200 samples
        self.assertEqual(analysis.samples_beyond(values, 0.95), 10)
        self.assertTrue(analysis.tail_supported(values, 0.95))
        self.assertFalse(analysis.tail_supported(values[:180], 0.95))
        # Ties at the cut are not beyond it.
        self.assertEqual(analysis.samples_beyond([1.0] * 50, 0.5), 0)

    def test_highest_supported_quantile(self):
        self.assertEqual(
            analysis.highest_supported_quantile(list(range(1000))), 0.99)
        self.assertEqual(
            analysis.highest_supported_quantile(list(range(200))), 0.95)
        self.assertEqual(
            analysis.highest_supported_quantile(list(range(40))), 0.75)
        self.assertIsNone(analysis.highest_supported_quantile([1.0] * 15))

    def test_iqr_fraction(self):
        self.assertEqual(analysis.iqr_fraction([4.0]), 0.0)
        self.assertAlmostEqual(
            analysis.iqr_fraction([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0 / 3.0)


class FleetInputTest(unittest.TestCase):
    def test_same_seed_same_fleet(self):
        self.assertEqual(inputs.fleet_plan(7), inputs.fleet_plan(7))
        self.assertEqual(inputs.plan_text("server_fleet", 7),
                         inputs.plan_text("server_fleet", 7))
        self.assertEqual(inputs.sweep_order(7), inputs.sweep_order(7))

    def test_seed_changes_composition_not_counts(self):
        a, b = inputs.fleet_plan(1), inputs.fleet_plan(2)
        self.assertNotEqual(a, b)
        for plan in (a, b):
            kinds = plan["kinds"]
            self.assertEqual(len(kinds), inputs.FLEET_SESSIONS)
            self.assertEqual(kinds.count("P"), 20)
            self.assertEqual(kinds.count("R"), 20)
            self.assertEqual(len(set(plan["streams"])),
                             inputs.FLEET_STREAMS)
            self.assertTrue(all(0 <= s < len(kinds)
                                for s in plan["streams"]))

    def test_sweep_order_is_a_permutation_heavy_model_first(self):
        order = inputs.sweep_order(3)
        self.assertEqual(sorted(order), list(range(inputs.SWEEP_POINTS)))
        per_model = inputs.SWEEP_POINTS_PER_MODEL
        self.assertTrue(all(i >= per_model for i in order[:per_model]))
        self.assertNotEqual(order, inputs.sweep_order(4))

    def test_world_workloads_take_no_plan(self):
        self.assertEqual(inputs.plan_text("mix_native", 1), "")


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            ["rep", 0, 100, -1],
            ["build", 10, 30, 0],
            ["step", 40, 70, 0],
            ["inner", 45, 55, 2],
        ]
        self.assertEqual(analysis.self_times(spans), [50, 20, 20, 10])

    def test_overlapping_children_count_once(self):
        # Two sweep points running on parallel lanes.
        spans = [
            ["sweep", 0, 100, -1],
            ["point", 0, 60, 0],
            ["point", 20, 90, 0],
        ]
        self.assertEqual(analysis.self_times(spans)[0], 10)

    def test_children_clipped_to_parent(self):
        spans = [["rep", 10, 20, -1], ["late", 15, 40, 0]]
        self.assertEqual(analysis.self_times(spans)[0], 5)

    def test_span_table(self):
        spans = [["rep", 0, 2_000_000, -1], ["step", 0, 1_500_000, 0]]
        table = analysis.span_table(spans)
        self.assertEqual(table["rep"][0], 1)
        self.assertAlmostEqual(table["rep"][1], 2.0)
        self.assertAlmostEqual(table["rep"][2], 0.5)


class MetricsTest(unittest.TestCase):
    def raw(self):
        return {
            "op_ms": [10.0, 12.0, 11.0, 30.0],
            "rep_ms": [22.0, 41.0],
            "rep_worst_ms": [12.0, 30.0],
            "rep_traced": [0.0, 1.0],
            "setup_s": [0.3, 0.1, 0.2],
            "peak_rss_mb": 40.0,
            "counters": {"work_units": 12, "steps": 12,
                         "phase.cloth_s": 0.001,
                         "cloth.relaxations": 0},
            "serial": {},
            "spans": [],
        }

    def test_end_to_end(self):
        m = analysis.end_to_end(self.raw())
        self.assertEqual(m["op_ms_p50"], (11.5, 4))
        self.assertEqual(m["worst_op_ms"], (21.0, 2))
        self.assertEqual(m["setup_s"], (0.2, 3))
        self.assertAlmostEqual(m["throughput_per_s"][0], 12 / 0.063)
        self.assertEqual({n for n, _, _ in analysis.END_TO_END}, set(m))

    def test_per_layer_names_and_unexercised_layers(self):
        m = analysis.per_layer(self.raw())
        self.assertEqual({n for n, _, _ in analysis.PER_LAYER}, set(m))
        # The phase timer ran but no cloth was relaxed: not exercised.
        self.assertEqual(m["cloth.ms_per_step"], 0.0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 41.0 / 22.0 - 1)


class StealShareTest(unittest.TestCase):
    def test_share_of_the_interval(self):
        before = [100, 0, 10, 500, 0, 0, 0, 40, 0, 0]
        after = [160, 0, 20, 520, 0, 0, 0, 50, 0, 0]
        self.assertAlmostEqual(run.steal_share(before, after), 0.1)

    def test_missing_counters(self):
        self.assertIsNone(run.steal_share(None, [1] * 10))
        self.assertIsNone(run.steal_share([1] * 10, [1] * 10))


class BenchmarkJsonTest(unittest.TestCase):
    def test_declared_metrics_match_the_analysis(self):
        spec = json.loads((Path(__file__).resolve().parent.parent /
                           "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [tuple(m) for m in analysis.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [tuple(m) for m in analysis.PER_LAYER])
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(analysis.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
