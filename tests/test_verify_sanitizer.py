"""The ordering sanitizer: clean on every backend's honest runs, and
able to locate each class of ordering bug when one is re-introduced
(mutation tests over the satellite fixes of the verify layer)."""

from __future__ import annotations

import pytest

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.ir import AffineExpr, MemObject, RegionBuilder, Sym
from repro.ir.graph import MDEKind
from repro.memory import MemoryHierarchy
from repro.obs.tracer import TraceEvent, Tracer
from repro.obs import tracer as obs
from repro.sim import (
    DataflowEngine,
    NachosBackend,
    NachosSWBackend,
    OptLSQBackend,
    SerialMemBackend,
    SpecLSQBackend,
    golden_execute,
)
from repro.verify import sanitize_trace
from repro.verify.sanitizer import (
    ACCESS_COUNT,
    COMPARATOR_VERDICT,
    CONFLICT_SEPARATION,
    EDGE_WAIT,
    FORWARD_SOURCE,
    INORDER_ISSUE,
    REPLAY_OBSERVES,
    SPURIOUS_VIOLATION,
)

BACKENDS = {
    "opt-lsq": OptLSQBackend,
    "spec-lsq": SpecLSQBackend,
    "serial-mem": SerialMemBackend,
    "nachos-sw": NachosSWBackend,
    "nachos": NachosBackend,
}
NEEDS_MDES = {"nachos-sw", "nachos"}


def _arr():
    return MemObject("a", 8192, base_addr=0x1000)


def _slow(b, x, n=6):
    v = x
    for _ in range(n):
        v = b.fdiv(v, x)
    return v


def conflict_region():
    """Slow older store, conflicting younger store, then a load."""
    a = _arr()
    b = RegionBuilder("conflict")
    x = b.input("x")
    b.store(a, AffineExpr.constant(0), value=_slow(b, x), width=8)
    b.store(a, AffineExpr.constant(4), value=x, width=8)
    b.load(a, AffineExpr.constant(0), width=8)
    return b.build()


def may_region():
    a = _arr()
    b = RegionBuilder("may")
    x = b.input("x")
    b.store(a, AffineExpr.of(syms={Sym("s1"): 8}), value=x, width=8)
    b.load(a, AffineExpr.of(syms={Sym("s2"): 4}), width=4)
    return b.build()


def traced(backend_name, envs, build_fn=conflict_region, backend=None):
    graph = build_fn()
    if backend_name in NEEDS_MDES:
        compile_region(graph)
    else:
        graph.clear_mdes()
    tracer = Tracer()
    engine = DataflowEngine(
        graph,
        place_region(graph),
        MemoryHierarchy(),
        backend if backend is not None else BACKENDS[backend_name](),
        tracer=tracer,
    )
    sim = engine.run(envs)
    golden = golden_execute(graph, envs)
    correct = golden.matches(sim.load_values, sim.memory_image)
    return graph, tracer, sim, correct


# ---------------------------------------------------------------------------
# Clean runs stay clean
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize(
    "build_fn,envs",
    [
        (conflict_region, [{}]),
        (may_region, [{"s1": 3, "s2": 6}, {"s1": 3, "s2": 1}]),
    ],
)
def test_sanitizer_clean_on_honest_backends(backend, build_fn, envs):
    graph, tracer, sim, correct = traced(backend, envs, build_fn)
    assert correct
    report = sanitize_trace(tracer.events, graph, sim.backend)
    assert report.ok, report.render()
    assert report.invocations == len(envs)
    assert sum(report.checks.values()) > 0


# ---------------------------------------------------------------------------
# Synthetic traces: each rule fires on its bug class
# ---------------------------------------------------------------------------
def two_store_graph():
    a = _arr()
    b = RegionBuilder("two-store")
    x = b.input("x")
    b.store(a, AffineExpr.constant(0), value=x, width=8)   # op 1
    b.store(a, AffineExpr.constant(4), value=x, width=8)   # op 2
    g = b.build()
    g.clear_mdes()
    return g


def _ev(kind, t, dur=0, inv=0, op=-1, args=None):
    return TraceEvent(kind, t, dur, inv, op, args)


def test_rule_access_count():
    g = two_store_graph()
    events = [_ev(obs.MEM_STORE, 0, 3, op=1, args={"addr": 0, "width": 8})]
    report = sanitize_trace(events, g, "serial-mem")
    assert [v.rule for v in report.violations] == [ACCESS_COUNT]
    assert report.violations[0].ops == (2,)


def test_rule_conflict_separation():
    g = two_store_graph()
    events = [
        _ev(obs.MEM_STORE, 0, 10, op=1, args={"addr": 0, "width": 8}),
        _ev(obs.MEM_STORE, 0, 10, op=2, args={"addr": 4, "width": 8}),
    ]
    report = sanitize_trace(events, g, "serial-mem")
    assert [v.rule for v in report.violations] == [CONFLICT_SEPARATION]
    assert report.violations[0].ops == (1, 2)
    # Strict inequality: one cycle of separation is enough.
    events[1] = _ev(obs.MEM_STORE, 0, 11, op=2, args={"addr": 4, "width": 8})
    assert sanitize_trace(events, g, "serial-mem").ok


def test_rule_conflict_separation_ignores_disjoint():
    g = two_store_graph()
    events = [
        _ev(obs.MEM_STORE, 0, 10, op=1, args={"addr": 0, "width": 4}),
        _ev(obs.MEM_STORE, 0, 5, op=2, args={"addr": 8, "width": 4}),
    ]
    assert sanitize_trace(events, g, "serial-mem").ok


def forward_graph():
    """ST exact / intervening partial ST / LD — forward legality cases."""
    a = _arr()
    b = RegionBuilder("fwd")
    x = b.input("x")
    b.store(a, AffineExpr.constant(0), value=x, width=8)   # op 1
    b.store(a, AffineExpr.constant(4), value=x, width=4)   # op 2
    b.load(a, AffineExpr.constant(0), width=8)             # op 4 (3 = value)
    g = b.build()
    g.clear_mdes()
    return g


def test_rule_forward_source():
    g = forward_graph()
    load = [op.op_id for op in g.memory_ops if op.is_load][0]
    base = [
        _ev(obs.MEM_STORE, 0, 5, op=1, args={"addr": 0, "width": 8}),
        _ev(obs.MEM_STORE, 10, 5, op=2, args={"addr": 4, "width": 4}),
    ]
    # Forward from op 1 skips the intervening overlapping store op 2.
    events = base + [
        _ev(obs.MEM_FORWARD, 20, op=load, args={"src": 1, "addr": 0, "width": 8})
    ]
    report = sanitize_trace(events, g, "opt-lsq")
    assert FORWARD_SOURCE in {v.rule for v in report.violations}
    # Forward from the youngest store whose range is not exact.
    events = base + [
        _ev(obs.MEM_FORWARD, 20, op=load, args={"src": 2, "addr": 0, "width": 8})
    ]
    report = sanitize_trace(events, g, "opt-lsq")
    assert FORWARD_SOURCE in {v.rule for v in report.violations}


def test_rule_inorder_issue():
    g = two_store_graph()
    events = [
        _ev(obs.MEM_STORE, 0, 3, op=1, args={"addr": 0, "width": 8}),
        _ev(obs.MEM_STORE, 5, 3, op=2, args={"addr": 16, "width": 8}),
        _ev(obs.LSQ_ENQUEUE, 0, op=2, args={"occupancy": 1, "bank": 0}),
        _ev(obs.LSQ_ENQUEUE, 1, op=1, args={"occupancy": 2, "bank": 0}),
    ]
    report = sanitize_trace(events, g, "opt-lsq")
    assert INORDER_ISSUE in {v.rule for v in report.violations}


def test_rule_replay_and_spurious_violation():
    g = two_store_graph()
    # A "violation" naming a store that had already published at the
    # speculative read — the strict-< tie-break bug's signature.
    events = [
        _ev(obs.MEM_STORE, 0, 10, op=1, args={"addr": 0, "width": 8}),
        _ev(obs.MEM_STORE, 11, 10, op=2, args={"addr": 4, "width": 8}),
        _ev(obs.SPECULATION, 10, op=99),
        _ev(obs.VIOLATION, 30, op=99, args={"stores": [1]}),
        _ev(obs.REPLAY, 30, op=99),
    ]
    report = sanitize_trace(events, g, "spec-lsq")
    rules = {v.rule for v in report.violations}
    assert SPURIOUS_VIOLATION in rules
    # A violation with no replay at all.
    events = [
        _ev(obs.MEM_STORE, 0, 10, op=1, args={"addr": 0, "width": 8}),
        _ev(obs.MEM_STORE, 11, 10, op=2, args={"addr": 4, "width": 8}),
        _ev(obs.VIOLATION, 30, op=99, args={"stores": [2]}),
    ]
    report = sanitize_trace(events, g, "spec-lsq")
    assert REPLAY_OBSERVES in {v.rule for v in report.violations}


# ---------------------------------------------------------------------------
# Mutation tests: re-introduced bugs are located
# ---------------------------------------------------------------------------
class NoOrderWait(NachosSWBackend):
    """Pretends every ORDER edge is resolved at invocation start."""

    def begin_invocation(self, inv, t0, addr_of):
        super().begin_invocation(inv, t0, addr_of)
        for e in self.graph.mdes:
            pair = (e.src, e.dst)
            if e.kind is MDEKind.ORDER and pair not in self._resolved:
                self._resolve(pair, t0)


def test_mutation_disabled_order_wait_is_located():
    graph = conflict_region()
    compile_region(graph)
    edges = [(e.src, e.dst) for e in graph.mdes if e.kind is MDEKind.ORDER]
    assert edges, "expected an ORDER edge in the mutation region"
    tracer = Tracer()
    engine = DataflowEngine(
        graph, place_region(graph), MemoryHierarchy(), NoOrderWait(),
        tracer=tracer,
    )
    engine.run([{}])
    report = sanitize_trace(tracer.events, graph, "nachos-sw")
    assert not report.ok
    located = {v.ops[:2] for v in report.violations if v.rule == EDGE_WAIT}
    assert located & set(edges), report.render()


class LiarComparator(NachosBackend):
    """Reports every ==? check as non-conflicting."""

    def _run_check(self, edge, t):
        pair = (edge.src, edge.dst)
        if pair in self._resolved:
            return
        self.stats.comparator_checks += 1
        self._conflict[pair] = False
        if self._trace is not None:
            self._trace.emit(
                obs.COMPARATOR_CHECK, t, op=edge.dst,
                args={"src": edge.src, "conflict": False},
            )
        self._resolve(pair, t)
        self._retry(edge.dst, t)


def test_mutation_lying_comparator_is_located():
    graph = may_region()
    compile_region(graph)
    tracer = Tracer()
    engine = DataflowEngine(
        graph, place_region(graph), MemoryHierarchy(), LiarComparator(),
        tracer=tracer,
    )
    engine.run([{"s1": 2, "s2": 4}])  # store [16,24) vs load [16,20): conflict
    report = sanitize_trace(tracer.events, graph, "nachos")
    assert COMPARATOR_VERDICT in {v.rule for v in report.violations}


def test_mutation_stage3_forward_chain_pruning_is_caught():
    """Re-introduce the unsound stage-3 pruning (forwarding ST->LD edges
    treated as publish-ordering) and check the sanitizer flags the runs
    on the straddling forward-chain region."""
    import repro.compiler.aliasing.stage3 as stage3
    from repro.compiler.pipeline import AliasPipeline

    def build():
        a = _arr()
        b = RegionBuilder("fwd-chain-straddle")
        x = b.input("x")
        b.load(a, AffineExpr.constant(64))                  # warms line 1
        b.store(a, AffineExpr.constant(60), value=x)        # straddles, cold
        ld = b.load(a, AffineExpr.constant(60))             # FORWARD target
        v = b.add(ld, b.const(1))
        b.store(a, AffineExpr.constant(64), value=v, width=2)
        return b.build()

    orig = stage3.prune_stage3

    def unsound(graph, matrix, keep_st_ld_forwarding=True, exact_pairs=None):
        return orig(graph, matrix, keep_st_ld_forwarding, exact_pairs=None)

    import repro.compiler.pipeline as pipeline_mod

    pipeline_mod.prune_stage3 = unsound
    try:
        graph = build()
        AliasPipeline().run(graph)
        tracer = Tracer()
        engine = DataflowEngine(
            graph, place_region(graph), MemoryHierarchy(), NachosBackend(),
            tracer=tracer,
        )
        sim = engine.run([{}])
        golden = golden_execute(graph, [{}])
        report = sanitize_trace(tracer.events, graph, "nachos")
        assert not golden.matches(sim.load_values, sim.memory_image)
        assert CONFLICT_SEPARATION in {v.rule for v in report.violations}
    finally:
        pipeline_mod.prune_stage3 = orig

    # With the sound pruning the same region is ordered and clean.
    graph = build()
    AliasPipeline().run(graph)
    tracer = Tracer()
    engine = DataflowEngine(
        graph, place_region(graph), MemoryHierarchy(), NachosBackend(),
        tracer=tracer,
    )
    sim = engine.run([{}])
    assert golden_execute(graph, [{}]).matches(sim.load_values, sim.memory_image)
    assert sanitize_trace(tracer.events, graph, "nachos").ok
