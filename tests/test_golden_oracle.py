"""The program-order golden model: compiled interpreter and shared check.

``golden_execute`` compiles a graph into a flat op program.  These tests
pin it to the plain per-op interpreter below (the model's definition,
written with :func:`mix` alone), and pin what the sweep's once-per-region
golden check relies on: ``run_system`` keys the address-stream and golden
memos by workload fingerprint, which is sound because every system
simulates ``workload.graph`` itself and differs only in the MDE tuple
its engine enforces.
"""

from __future__ import annotations

import pickle
from typing import Dict, Tuple

import pytest

from tests.test_litmus import LITMUS

from repro.compiler.pipeline import PipelineConfig
from repro.ir.opcodes import Opcode
from repro.runtime.cache import configure_cache, get_cache
from repro.runtime.fingerprint import envs_fingerprint
from repro.sim.oracle import GoldenResult, golden_execute
from repro.sim.values import mix
from repro.verify.fuzz import build_graph, generate_spec
from repro.workloads.suite import build_suite_workloads

#: Opcode ids in declaration order, as both value models mix them.
_OPCODE_ID = {opcode: i for i, opcode in enumerate(Opcode)}

#: Invocations per suite region: enough to revisit addresses (store-then-
#: load across invocations) while keeping 135 regions quick.
SUITE_INVOCATIONS = 8


def reference_golden(graph, invocations) -> GoldenResult:
    """Run *graph* in strict program order, one op at a time."""
    memory: Dict[int, int] = {}
    load_values: Dict[Tuple[int, int], int] = {}
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
                load_values[(inv, op.op_id)] = values[op.op_id]
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
    return GoldenResult(load_values, tuple(sorted(memory.items())))


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


#: The systems whose backend enforces no MDEs.
NO_MDE_SYSTEMS = ("opt-lsq", "spec-lsq", "serial-mem")


def test_every_system_simulates_the_workload_graph(no_cache, monkeypatch,
                                                   suite_regions):
    """Every system hands ``workload.graph`` itself to the engine; only
    the MDE tuple differs, and its length is the run's ``n_mdes``."""
    import repro.experiments.common as common

    seen = []
    real = common.make_engine

    def spy(graph, placement, hierarchy, backend, *args, **kwargs):
        seen.append((graph, kwargs["mdes"]))
        return real(graph, placement, hierarchy, backend, *args, **kwargs)

    monkeypatch.setattr(common, "make_engine", spy)
    for w in suite_regions[:3]:
        full = tuple(common.compile_workload(w, PipelineConfig.full()).mdes)
        for system in sorted(common._KNOWN_SYSTEMS):
            run = common.run_system(w, system, invocations=4)
            graph, mdes = seen.pop()
            assert graph is w.graph, (w.name, system)
            assert isinstance(mdes, tuple), (w.name, system)
            assert len(mdes) == run.n_mdes, (w.name, system)
            if system in NO_MDE_SYSTEMS:
                assert mdes == (), (w.name, system)
            elif system in ("nachos-sw", "nachos"):
                assert mdes == full, (w.name, system)
        assert not seen


def test_traced_run_matches_the_sweep_for_every_system(no_cache):
    """``traced_run`` shares the sweep's set-up (MDE choice, placement,
    address streams, warm-up, golden check): its SimResult pickles
    byte-identical to ``run_system``'s for every system, and it reports
    the MDEs the backend enforced."""
    from repro.experiments.common import _KNOWN_SYSTEMS, run_system
    from repro.obs import resolve_workload, traced_run

    workload = resolve_workload("micro.scatter")
    for system in sorted(_KNOWN_SYSTEMS):
        traced = traced_run(workload, system, invocations=6)
        swept = run_system(workload, system, invocations=6)
        assert pickle.dumps(traced.sim) == pickle.dumps(swept.sim), system
        assert traced.correct and swept.correct, system
        assert traced.graph is workload.graph, system
        assert len(traced.mdes) == swept.n_mdes, system


def test_oracle_cache_entry_holds_only_edges(tmp_path):
    """The trace oracle's on-disk entry is its edge tuple, no graph."""
    from repro.experiments.common import clear_memos, run_system, workload_fingerprint
    from repro.ir.graph import MemoryDependencyEdge
    from repro.runtime.fingerprint import combine
    from repro.workloads.micro import build_micro

    prev = get_cache()
    configure_cache(root=tmp_path, enabled=True)
    clear_memos()
    try:
        w = build_micro("scatter")
        run = run_system(w, "oracle-sw", invocations=4)
        envs = w.invocations(4)
        entry = get_cache().get(
            combine("oracle", workload_fingerprint(w), envs_fingerprint(envs))
        )
    finally:
        clear_memos()
        configure_cache(root=prev.root, enabled=prev.enabled)
    assert isinstance(entry, tuple)
    assert len(entry) == run.n_mdes > 0
    assert all(type(e) is MemoryDependencyEdge for e in entry)
    assert b"DFGraph" not in pickle.dumps(entry)


def test_one_golden_run_per_region(no_cache, monkeypatch, suite_regions):
    """Every system shares one golden execution per region."""
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


def test_unknown_system_names_every_known_system():
    """``run_system`` rejects an unknown system and lists all seven."""
    from repro.experiments.common import _KNOWN_SYSTEMS, run_system
    from repro.workloads.micro import build_micro

    with pytest.raises(ValueError) as excinfo:
        run_system(build_micro("gather"), "bogus")
    assert len(_KNOWN_SYSTEMS) == 7
    for system in _KNOWN_SYSTEMS:
        assert repr(system) in str(excinfo.value), system


def test_compile_fingerprint_is_the_pipeline_config_fingerprint():
    """The memoized compile term of the sim key is each system's
    pipeline config fingerprint (``oracle`` for the trace oracle)."""
    import repro.experiments.common as common
    from repro.runtime.fingerprint import config_fingerprint

    for system in common._KNOWN_SYSTEMS:
        want = "oracle" if system == "oracle-sw" else config_fingerprint(
            common._pipeline_for(system)
        )
        assert common._compile_fingerprint(system) == want, system
        assert common._compile_fingerprint(system) is common._compile_fingerprint(system)
