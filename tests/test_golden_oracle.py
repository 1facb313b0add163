"""The program-order golden model: compiled interpreter and shared check.

``golden_execute`` compiles a graph into a flat op program.  These tests
pin it to the plain per-op interpreter below (the model's definition,
written with :func:`mix` alone), and pin what the sweep's once-per-region
golden check relies on: ``run_system`` keys the address-stream and golden
memos by workload fingerprint and runs the golden model on the bare
graph, so every graph a system simulates (bare, baseline compiler, full
compiler, trace oracle) must carry the bare graph's ops and address
stream.
"""

from __future__ import annotations

from typing import Dict

import pytest

from tests.test_litmus import LITMUS

from repro.compiler.pipeline import PipelineConfig
from repro.ir.opcodes import Opcode
from repro.runtime.cache import configure_cache, get_cache
from repro.runtime.fingerprint import envs_fingerprint
from repro.sim.engine import _OPCODE_ID
from repro.sim.oracle import GoldenResult, golden_execute
from repro.sim.values import mix
from repro.verify.fuzz import build_graph, generate_spec
from repro.workloads.suite import build_suite_workloads

#: Invocations per suite region: enough to revisit addresses (store-then-
#: load across invocations) while keeping 135 regions quick.
SUITE_INVOCATIONS = 8


def reference_golden(graph, invocations) -> GoldenResult:
    """Run *graph* in strict program order, one op at a time."""
    memory: Dict[int, int] = {}
    result = GoldenResult()
    for inv, env in enumerate(invocations):
        values: Dict[int, int] = {}
        for op in graph.ops:
            if op.opcode is Opcode.CONST:
                values[op.op_id] = mix(0xC0, op.op_id)
            elif op.opcode is Opcode.INPUT:
                values[op.op_id] = mix(0x1F, op.op_id, inv)
            elif op.is_load:
                addr, width = op.addr.evaluate(env), op.addr.width
                values[op.op_id] = mix(
                    *(memory.get(addr + k, 0) for k in range(width))
                )
                result.load_values[(inv, op.op_id)] = values[op.op_id]
            elif op.is_store:
                addr, width = op.addr.evaluate(env), op.addr.width
                value = values[op.inputs[-1]]
                for k in range(width):
                    memory[addr + k] = mix(value, k)
                values[op.op_id] = value
            else:
                values[op.op_id] = mix(
                    _OPCODE_ID[op.opcode], *(values[i] for i in op.inputs)
                )
    result.memory_image = tuple(sorted(memory.items()))
    return result


def _assert_same(graph, envs, label):
    got = golden_execute(graph, envs)
    want = reference_golden(graph, envs)
    # Insertion order too: callers may iterate load_values.
    assert list(got.load_values.items()) == list(want.load_values.items()), label
    assert got.memory_image == want.memory_image, label


@pytest.fixture(scope="module")
def suite_regions():
    return build_suite_workloads(5)


def test_matches_reference_on_suite_regions(suite_regions):
    assert len(suite_regions) == 135
    for w in suite_regions:
        _assert_same(w.graph, w.invocations(SUITE_INVOCATIONS), w.name)


@pytest.mark.parametrize("litmus", sorted(LITMUS))
def test_matches_reference_on_litmus(litmus):
    build_fn, envs = LITMUS[litmus]
    _assert_same(build_fn(), envs * 3, litmus)


def test_matches_reference_on_fuzz_corpus():
    for index in range(200):
        spec = generate_spec(0, index)
        _assert_same(build_graph(spec), spec.env_dicts(), spec.name)


@pytest.fixture
def no_cache():
    from repro.experiments.common import clear_memos

    prev = get_cache()
    configure_cache(enabled=False)
    clear_memos()
    yield
    clear_memos()
    configure_cache(root=prev.root, enabled=prev.enabled)


def _signature(graph, envs):
    ops = [(o.op_id, o.opcode, o.inputs) for o in graph.ops]
    addrs = [(o.op_id, o.addr.evaluate(env), o.addr.width)
             for env in envs for o in graph.memory_ops]
    return ops, addrs


def test_system_graphs_agree(no_cache, suite_regions):
    """The golden check runs once per region on the bare graph, so every
    other graph a system simulates (MDEs installed by the baseline
    compiler, the full compiler or the trace oracle) must execute
    identically."""
    from repro.experiments.common import (
        _oracle_graph,
        compile_workload,
        workload_fingerprint,
    )

    configs = (PipelineConfig.baseline_compiler(), PipelineConfig.full())
    cache = get_cache()
    for w in suite_regions:
        bare = w.graph.clone(with_mdes=False)
        envs = w.invocations(SUITE_INVOCATIONS)
        graphs = [compile_workload(w, cfg).graph for cfg in configs]
        graphs.append(_oracle_graph(
            w, workload_fingerprint(w), envs, envs_fingerprint(envs), cache
        )[0])
        want_sig = _signature(bare, envs)
        want = golden_execute(bare, envs)
        for graph in graphs:
            # Same ops and the same address stream (the template cache
            # and the address-stream memo share on these too).
            assert _signature(graph, envs) == want_sig, w.name
            got = golden_execute(graph, envs)
            assert got.load_values == want.load_values, w.name
            assert got.memory_image == want.memory_image, w.name


def test_one_golden_run_per_region(no_cache, monkeypatch, suite_regions):
    """Every system (bare, compiled and oracle-annotated graphs alike)
    shares one golden execution per region."""
    import repro.experiments.common as common

    calls = []
    real = common.golden_execute

    def counting(graph, envs):
        calls.append(graph.name)
        return real(graph, envs)

    monkeypatch.setattr(common, "golden_execute", counting)
    regions = suite_regions[:3]
    for w in regions:
        for system in sorted(common._KNOWN_SYSTEMS):
            assert common.run_system(w, system, invocations=4).correct
    assert calls == [w.graph.name for w in regions]
