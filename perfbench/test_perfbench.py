"""Tests for the benchmark's own statistics, span arithmetic and output.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, stats  # noqa: E402


def _span(sid, start, end, parent=None, name="x"):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "key": None, "attrs": {}}


class TestPercentileRule(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        # p99 of 1000 is the 990th value: 10 lie beyond it.
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(999, 99.0), 9)
        self.assertEqual(stats.samples_beyond(100, 90.0), 10)
        # 99.9% of 10000 must not round up past rank 9990.
        self.assertEqual(stats.samples_beyond(10000, 99.9), 10)

    def test_tail_falls_back_to_max_with_few_samples(self):
        values = [float(v) for v in range(1, 101)]
        value, how = layers.tail(values, 90.0)
        self.assertEqual(value, 90.0)
        self.assertIn("10 beyond", how)
        value, how = layers.tail(values, 95.0)
        self.assertEqual(value, 100.0)
        self.assertIn("max of 100", how)

    def test_percentile_is_a_sample(self):
        self.assertEqual(stats.percentile([5, 1, 3, 2, 4], 50), 3.0)
        self.assertEqual(stats.percentile([5, 1, 3, 2, 4], 100), 5.0)
        self.assertEqual(stats.percentile([7], 99), 7.0)


class TestMedianQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2.0)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_module(self):
        values = [1.0, 7.0, 3.0, 9.0, 4.0, 2.0, 8.0, 6.0, 5.0, 10.0]
        self.assertEqual(list(stats.quartiles(values)),
                         statistics.quantiles(values, n=4))

    def test_single_sample_has_no_spread(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))


class TestSelfTime(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(stats.union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(stats.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(stats.union_length([]), 0)

    def test_overlapping_children_are_subtracted_once(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 5.0, parent="root"),   # two pool workers
            _span("b", 3.0, 7.0, parent="root"),   # overlap on [3, 5]
            _span("a1", 2.0, 3.0, parent="a"),
        ]
        own = stats.self_times(spans)
        self.assertAlmostEqual(own["root"], 10.0 - 6.0)
        self.assertAlmostEqual(own["a"], 4.0 - 1.0)
        self.assertAlmostEqual(own["b"], 4.0)
        self.assertAlmostEqual(own["a1"], 1.0)

    def test_child_sticking_out_is_clipped(self):
        spans = [_span("p", 0.0, 4.0), _span("c", 3.0, 9.0, parent="p")]
        self.assertAlmostEqual(stats.self_times(spans)["p"], 3.0)


class TestMetricNames(unittest.TestCase):
    def test_benchmark_json_lists_every_reported_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(layers.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(layers.PER_LAYER))


class TestServeMixSequence(unittest.TestCase):
    """The serve-mix request sequence, without a daemon."""

    def _sequence(self, seed: int, n: int) -> list:
        from perfbench.spans import NullTracer
        from perfbench.workloads import ServeMix

        mix = ServeMix(seed, Path("unused"), NullTracer())
        return [mix._request(i) for i in range(n)]

    def test_seed_fixes_the_sequence(self):
        self.assertEqual(self._sequence(3, 400), self._sequence(3, 400))
        self.assertNotEqual(self._sequence(3, 400), self._sequence(4, 400))

    def test_blocks_hold_the_stated_mix(self):
        from perfbench import workloads as w

        seq = self._sequence(5, 40 * w.BLOCK)
        for b in range(0, len(seq), w.BLOCK):
            kinds = [r[3] for r in seq[b:b + w.BLOCK]]
            self.assertEqual(kinds.count("fresh"), w.FRESH_PER_BLOCK)
            self.assertEqual(kinds.count("read"), w.READS_PER_BLOCK)
        hot = {(r, w.SYSTEMS, w.HOT_INVOCATIONS) for r, *_ in seq}
        for region, systems, inv, kind in seq:
            key = (region, systems, inv)
            if kind == "hit":
                self.assertIn(key, hot)
            elif kind == "read":
                # A proper subset of a hot request: computed, never requested.
                self.assertEqual(inv, w.HOT_INVOCATIONS)
                self.assertLess(set(systems), set(w.SYSTEMS))
            else:
                self.assertNotEqual(inv, w.HOT_INVOCATIONS)
        for kind in ("read", "fresh"):
            keys = [r[:3] for r in seq if r[3] == kind]
            self.assertEqual(len(keys), len(set(keys)), f"a {kind} request repeats")

    def test_read_slots_become_hits_when_subsets_run_out(self):
        from perfbench import workloads as w

        seq = self._sequence(6, 200 * w.BLOCK)
        self.assertEqual(sum(1 for r in seq if r[3] == "read"), 27 * 6)


class TestSmokeRun(unittest.TestCase):
    """One seeded pass of the cheapest workload, untraced and traced."""

    def _run(self, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", "compile-allpaths", "--seed", "7",
             "--seconds", "0", "--trace", str(trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, names in ((0, layers.END_TO_END), (1, layers.PER_LAYER)):
            metrics = self._run(trace)["metrics"]
            self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                             dict(names))
            for entry in metrics.values():
                self.assertIsInstance(entry["value"], float)


if __name__ == "__main__":
    unittest.main()
