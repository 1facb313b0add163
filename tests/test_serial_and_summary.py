"""Tests for the serial-memory backend, granularity study, and summary."""

import pytest

from repro.cgra.placement import place_region
from repro.memory import MemoryHierarchy
from repro.sim import DataflowEngine, SerialMemBackend, golden_execute
from repro.workloads import build_workload, get_spec
from tests.conftest import build_may_region, build_simple_region


def run_serial(graph, envs):
    graph.clear_mdes()
    engine = DataflowEngine(
        graph, place_region(graph), MemoryHierarchy(), SerialMemBackend()
    )
    return engine.run(envs)


class TestSerialMemBackend:
    def test_correct_on_simple_region(self):
        g = build_simple_region()
        envs = [{"i": k} for k in range(5)]
        result = run_serial(g, envs)
        assert golden_execute(g, envs).matches(
            result.load_values, result.memory_image
        )

    def test_correct_on_ambiguous_region(self):
        g = build_may_region()
        envs = [{"i": k % 32} for k in range(5)]
        result = run_serial(g, envs)
        assert golden_execute(g, envs).matches(
            result.load_values, result.memory_image
        )

    def test_correct_on_conflicting_workload(self):
        w = build_workload(get_spec("histogram"))
        envs = w.invocations(6)
        result = run_serial(w.graph, envs)
        assert golden_execute(w.graph, envs).matches(
            result.load_values, result.memory_image
        )

    def test_strictly_in_order_completions(self):
        from repro.sim import TimelineRecorder

        g = build_simple_region()
        g.clear_mdes()
        recorder = TimelineRecorder()
        engine = DataflowEngine(
            g, place_region(g), MemoryHierarchy(), SerialMemBackend(),
            recorder=recorder,
        )
        engine.run([{"i": 0}])
        tl = recorder.invocations[0]
        mem_completions = [
            tl.completion_of(op.op_id) for op in g.memory_ops
        ]
        assert mem_completions == sorted(mem_completions)
        assert len(set(mem_completions)) == len(mem_completions)

    def test_slower_than_parallel_backends(self):
        from repro.experiments.common import run_system
        from repro.experiments.regions import workload_for

        w = workload_for(get_spec("equake"))
        nachos = run_system(w, "nachos", invocations=6)
        serial = run_serial(w.graph, w.invocations(6))
        assert serial.cycles > nachos.sim.cycles

    def test_no_disambiguation_energy(self):
        g = build_simple_region()
        g.clear_mdes()
        engine = DataflowEngine(
            g, place_region(g), MemoryHierarchy(), SerialMemBackend()
        )
        engine.run([{"i": 0}])
        assert engine.energy.breakdown().disambiguation == 0.0


class TestGranularityExperiment:
    def test_runs_and_renders(self):
        from repro.experiments import granularity

        result = granularity.run(invocations=4)
        assert len(result.rows) == 27
        out = granularity.render(result)
        assert "Table I quantified" in out

    def test_memory_parallel_regions_collapse(self):
        from repro.experiments import granularity

        result = granularity.run(invocations=4)
        by_name = {r.name: r for r in result.rows}
        assert by_name["equake"].serial_slowdown_pct > 100.0
        assert by_name["blackscholes"].serial_slowdown_pct == 0.0


class TestSummary:
    def test_summary_claims_hold(self):
        from repro.experiments import summary

        result = summary.run(invocations=8)
        assert len(result.checks) == 14
        failed = [c.claim_id for c in result.checks if not c.passed]
        assert result.all_passed, f"failed claims: {failed}"

    def test_render_marks_failures(self):
        from repro.experiments.summary import ClaimCheck, SummaryResult, render

        result = SummaryResult(
            checks=[
                ClaimCheck("a", "p", "m", True),
                ClaimCheck("b", "p", "m", False),
            ]
        )
        out = render(result)
        assert "1/2" in out
        assert "FAIL" in out and "PASS" in out
        assert not result.all_passed
