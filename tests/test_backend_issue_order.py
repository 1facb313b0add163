"""Issue-order oracle for the MDE backends' retry gating.

``MDEBackendBase._retry`` schedules no re-evaluation for an op that has
already issued or whose address is not ready yet.  The polling variants
below restore the unconditional retry (one ``_try_issue`` event per edge
event), which is the protocol the gated backend must be indistinguishable
from.  Same-cycle event order decides the FCFS cache-port and comparator
claims, so the contract is stronger than equal results: every
``do_load``/``do_store``/``forward_load`` call, as ``(invocation, op,
actuator, t_start)``, and every ``MemoryHierarchy.access`` call must
happen in the same order under both engines, over three corpora:

* every litmus pattern (multi-invocation, so fast templates replay);
* the fixed-seed 200-spec fuzz corpus;
* the 27 suite regions (hottest path, warm L2) at a few invocations.
"""

from __future__ import annotations

import pickle

import pytest

from tests.test_litmus import LITMUS

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.memory import MemoryHierarchy
from repro.sim import DataflowEngine, FastEngine, NachosBackend, NachosSWBackend
from repro.verify.fuzz import build_graph, generate_spec

FUZZ_SEED = 0
FUZZ_SPECS = 200
FUZZ_CHUNK = 50
SUITE_INVOCATIONS = 3
ENGINES = (DataflowEngine, FastEngine)


def _polling(base):
    """*base* with the unconditional retry: one event per edge event."""

    class Polling(base):
        def _retry(self, op_id, when):
            self.engine.schedule(when, lambda: self._try_issue(op_id, when))

    return Polling


#: system -> (production backend, polling reference backend)
BACKENDS = {
    "nachos-sw": (NachosSWBackend, _polling(NachosSWBackend)),
    "nachos": (NachosBackend, _polling(NachosBackend)),
}


def _record(engine):
    """Log every issue and cache access *engine* makes, in call order."""
    log = []

    def actuator(name):
        call = getattr(engine, name)

        def recorded(op, *args):
            log.append((engine._inv_index, op.op_id, name, args[-1]))
            return call(op, *args)

        return recorded

    for name in ("do_load", "do_store", "forward_load"):
        setattr(engine, name, actuator(name))
    access = engine.hierarchy.access

    def recorded_access(addr, is_write, cycle):
        log.append(("access", addr, is_write, cycle))
        return access(addr, is_write, cycle)

    engine.hierarchy.access = recorded_access
    return log


def _issue_log(graph, placement, backend_cls, envs, engine_cls, warm=None,
               streams=None, mdes=None):
    hierarchy = MemoryHierarchy()
    for addr, is_write in warm or ():
        hierarchy.l2.access(addr, is_write=is_write)
    hierarchy.l2.stats.reset()
    engine = engine_cls(graph, placement, hierarchy, backend_cls(), mdes=mdes)
    log = _record(engine)
    result = engine.run(envs, addr_streams=streams)
    return log, pickle.dumps(result)


def _assert_same_order(graph, envs, label, warm=None, streams=None, mdes=None):
    """Compare gated and polling runs; return how many calls were logged."""
    placement = place_region(graph)
    logged = 0
    for system, (gated, polling) in BACKENDS.items():
        for engine_cls in ENGINES:
            want = _issue_log(graph, placement, polling, envs, engine_cls, warm,
                              streams, mdes)
            got = _issue_log(graph, placement, gated, envs, engine_cls, warm,
                             streams, mdes)
            where = f"{label}/{system}/{engine_cls.__name__}"
            assert got[0] == want[0], f"{where}: issue order moved"
            assert got[1] == want[1], f"{where}: SimResults diverge"
            logged += len(got[0])
    return logged


@pytest.mark.parametrize("litmus", sorted(LITMUS))
def test_litmus_issue_order(litmus):
    build_fn, envs = LITMUS[litmus]
    graph = build_fn()
    compile_region(graph)
    assert _assert_same_order(graph, envs * 3, litmus)


@pytest.mark.parametrize("chunk", range(FUZZ_SPECS // FUZZ_CHUNK))
def test_fuzz_corpus_issue_order(chunk):
    for index in range(chunk * FUZZ_CHUNK, (chunk + 1) * FUZZ_CHUNK):
        spec = generate_spec(FUZZ_SEED, index)
        graph = build_graph(spec)
        compile_region(graph)
        assert _assert_same_order(graph, spec.env_dicts(), spec.name)


def test_suite_regions_issue_order():
    from repro.compiler.pipeline import PipelineConfig
    from repro.experiments.common import compile_workload
    from repro.workloads.suite import build_suite_workloads

    logged = 0
    with_mdes = 0
    for workload in build_suite_workloads(1):
        result = compile_workload(workload, PipelineConfig.full())
        graph = result.graph
        with_mdes += bool(result.mdes)
        envs = workload.invocations(SUITE_INVOCATIONS)
        mem_ops = graph.memory_ops
        streams = [
            {op.op_id: (op.addr.evaluate(env), op.addr.width) for op in mem_ops}
            for env in envs
        ]
        warm = [
            (amap[op.op_id][0], op.is_store) for amap in streams for op in mem_ops
        ]
        logged += _assert_same_order(graph, envs, workload.name, warm, streams,
                                     result.mdes)
    assert logged
    assert with_mdes  # the MDE backends really had edges to enforce
