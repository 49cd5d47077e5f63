"""Unit tests of the benchmark's own arithmetic (no build needed).

    python3 -m unittest discover perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import analysis  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


class PercentileRule(unittest.TestCase):
    def test_p90_of_100_leaves_exactly_10_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile_with_tail(values, 0.9), 90)

    def test_too_few_samples_beyond_is_refused(self):
        with self.assertRaises(ValueError):
            analysis.percentile_with_tail(list(range(99)), 0.9)

    def test_order_does_not_matter(self):
        values = [5.0 * ((7 * i) % 120) for i in range(120)]
        rank = 108  # ceil(0.9 * 120)
        self.assertEqual(analysis.percentile_with_tail(values, 0.9),
                         sorted(values)[rank - 1])
        self.assertGreaterEqual(120 - rank, 10)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            (-1, 0, 100),   # 0 root
            (0, 10, 40),    # 1 child
            (0, 30, 60),    # 2 child overlapping 1 by 10
            (1, 15, 20),    # 3 grandchild under 1
            (0, 90, 120),   # 4 child running past its parent
        ]
        self.assertEqual(analysis.self_times(spans), [40, 25, 30, 5, 30])

    def test_sequential_children_sum_to_parent(self):
        spans = [(-1, 0, 50), (0, 0, 20), (0, 20, 50)]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs, [0, 20, 30])
        self.assertEqual(sum(selfs), 50)


class StealFree(unittest.TestCase):
    def test_no_steal_leaves_wall_time(self):
        wall = [10, 20, 30, 40]
        self.assertEqual(analysis.steal_free(wall, [25] * 4, [0] * 4), wall)

    def test_one_thread_gives_its_cpu_time(self):
        # One busy vCPU: wall = cpu + steal, so k = 1 and the result is
        # the CPU time.
        got = analysis.steal_free([100, 100], [80, 60], [20, 40])
        self.assertEqual(got, [80.0, 60.0])

    def test_steps_are_corrected_in_units_of_the_step_group(self):
        # One tick of steal lands in the second step; over the unit of
        # two one-thread steps it is shared out evenly.
        raw = {"step_group": 2, "step_wall_ns": [10, 20, 15, 15],
               "step_cpu_ns": [10, 10, 15, 15],
               "step_steal_ns": [0, 10, 0, 0]}
        self.assertEqual(analysis.step_times(raw, raw), [10.0, 15.0])

    def test_parallel_steal_stalls_the_whole_step(self):
        # Two busy vCPUs, each stolen half the time: the step advanced
        # only while neither was, a quarter of its wall time.
        got = analysis.steal_free([100], [100], [100])
        self.assertEqual(got, [25.0])


def fake_raw(trace):
    steps = 100
    raw = {
        "trace": trace,
        "samples_per_step": 50,
        "step_group": 1,
        "setup_wall_ns": [500_000_000, 700_000_000, 800_000_000],
        "setup_cpu_ns": [500_000_000, 700_000_000, 600_000_000],
        "setup_steal_ns": [0, 0, 200_000_000],
        "step_wall_ns": [10_000_000 + 1000 * i for i in range(steps)],
        "step_cpu_ns": [20_000_000 + 1000 * i for i in range(steps)],
        "step_steal_ns": [0] * steps,
        "peak_rss_kib": 2048,
        "attempted": steps,
        "failed": 0,
        "failures": [],
        "digest": "0" * 16,
    }
    if trace:
        names = ["step", "data.batch", "nn.1.conv2d.fwd"]
        spans = []
        for k in range(steps):
            t = k * 20_000_000
            root = len(spans)
            spans.append([0, -1, k, t, t + 10_000_000, 4096, 4])
            spans.append([1, root, k, t, t + 1_000_000, 1024, 1])
            spans.append([2, root, k, t + 1_000_000, t + 9_000_000, 2048, 2])
        raw["traced"] = {
            "untraced_wall_ns": [10_000_000] * steps,
            "untraced_cpu_ns": [8_000_000] * steps,
            "untraced_steal_ns": [2_000_000] * steps,
            "span_names": names,
            "spans": spans,
            "values": {"core.macs_per_sample": 1234.0},
            "counts": {"kernels.gemm_dot.elems_per_step": 99.0},
        }
    return raw


class Report(unittest.TestCase):
    def test_throughput_is_samples_over_summed_time(self):
        ns = [10_000_000] * 90 + [110_000_000] * 10
        self.assertAlmostEqual(analysis.samples_per_s(ns, 50), 2500.0)

    def test_untraced_round_trip(self):
        rep = analysis.report(fake_raw(0))
        back = analysis.parse_report(json.dumps(rep))
        self.assertEqual(back, rep)
        want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({n: m["unit"] for n, m in back["metrics"].items()},
                         want)
        self.assertTrue(back["correct"])
        self.assertAlmostEqual(back["metrics"]["setup_s"]["value"], 0.6)
        self.assertAlmostEqual(back["metrics"]["step_ms_p50"]["value"],
                               10.0495)
        self.assertAlmostEqual(back["metrics"]["peak_rss_mib"]["value"], 2.0)

    def test_traced_round_trip(self):
        raw = fake_raw(1)
        rep = analysis.report(raw)
        back = analysis.parse_report(json.dumps(rep))
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({n: m["unit"] for n, m in back["metrics"].items()},
                         want)
        m = {n: v["value"] for n, v in back["metrics"].items()}
        self.assertAlmostEqual(m["nn.1.conv2d.fwd_ms"], 8.0)
        self.assertAlmostEqual(m["nn.1.conv2d.fwd_alloc_kib"], 2.0)
        self.assertAlmostEqual(m["data.batch_ms"], 1.0)
        self.assertAlmostEqual(m["heap.step_alloc_count"], 4.0)
        self.assertAlmostEqual(m["core.macs_per_sample"], 1234.0)
        self.assertAlmostEqual(m["kernels.gemm_dot.elems_per_step"], 99.0)
        self.assertEqual(m["hw.a8b2.forward_ms"], 0.0)
        self.assertAlmostEqual(m["wall.samples_per_s"], 50 / 0.010)
        self.assertAlmostEqual(m["cpu.samples_per_s"], 50 / 0.008)
        self.assertAlmostEqual(m["host.steal_pct"], 20.0)
        self.assertAlmostEqual(m["setup_cold_s"], 0.5)
        # Untraced: one busy vCPU, 10 ms x 0.8 unstolen = 8 ms; traced
        # about 10.05 ms without steal.
        self.assertAlmostEqual(m["trace_overhead_pct"],
                               100 * (1 - 8.0 / 10.0495), delta=0.05)
        table = analysis.span_table(raw)
        self.assertEqual(sum(r["self_ns"] for r in table.values()),
                         table["step"]["total_ns"])
        self_ms, untraced_ms, gap = analysis.self_time_check(raw)
        self.assertAlmostEqual(self_ms, 10.0)
        self.assertAlmostEqual(untraced_ms, 8.0)
        self.assertAlmostEqual(gap, 25.0)

    def test_failures_make_the_run_incorrect(self):
        raw = fake_raw(0)
        raw["failed"] = 1
        self.assertFalse(analysis.report(raw)["correct"])

    def test_parse_rejects_metric_without_unit(self):
        rep = analysis.report(fake_raw(0))
        rep["metrics"]["step_ms_p50"] = {"value": 1.0, "unit": ""}
        with self.assertRaises(ValueError):
            analysis.parse_report(json.dumps(rep))


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_analysis(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in BENCHMARK["end_to_end"]],
            analysis.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in BENCHMARK["per_layer"]],
            analysis.per_layer_metrics())

    def test_workloads_match_the_runner(self):
        sys.path.insert(0, str(HERE.parent))
        import run
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
