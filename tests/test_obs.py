"""Observability layer: tracer correctness, Chrome-trace schema, the
counter<->event contract, metrics, and the zero-overhead
disabled path."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.ir import AffineExpr, MemObject, RegionBuilder, Sym
from repro.memory import MemoryHierarchy
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    backend_counts,
    chrome_trace,
    metrics_from_run,
    order_wait_latencies,
    resolve_workload,
    traced_run,
)
from repro.obs.tracer import (
    COMPARATOR_CHECK,
    INVOCATION,
    MEM_LOAD,
    MEM_STORE,
    OP_EXEC,
    ORDER_WAIT,
    RUNTIME_FORWARD,
)
from repro.sim import (
    DataflowEngine,
    InvocationTimeline,
    NachosBackend,
    NachosSWBackend,
    OptLSQBackend,
    OpTiming,
    SerialMemBackend,
    SpecLSQBackend,
    TimelineRecorder,
)
from repro.sim.result import BackendStats

BACKENDS = {
    "opt-lsq": OptLSQBackend,
    "spec-lsq": SpecLSQBackend,
    "serial-mem": SerialMemBackend,
    "nachos-sw": NachosSWBackend,
    "nachos": NachosBackend,
}
NEEDS_MDES = {"nachos-sw", "nachos"}


def may_pair():
    """One symbolic ST/LD MAY pair — the paper's ``==?`` litmus."""
    a = MemObject("a", 8192, base_addr=0x1000)
    b = RegionBuilder("may-pair")
    x = b.input("x")
    b.store(a, AffineExpr.of(syms={Sym("s1"): 8}), value=x)
    b.load(a, AffineExpr.of(syms={Sym("s2"): 8}))
    return b.build()


def run_traced(backend_name, envs, build_fn=may_pair, tracer=None,
               recorder=None):
    graph = build_fn()
    if backend_name in NEEDS_MDES:
        compile_region(graph)
    else:
        graph.clear_mdes()
    engine = DataflowEngine(
        graph,
        place_region(graph),
        MemoryHierarchy(),
        BACKENDS[backend_name](),
        recorder=recorder,
        tracer=tracer,
    )
    return engine, graph, engine.run(envs)


# ---------------------------------------------------------------------------
# MAY-pair litmus event streams
# ---------------------------------------------------------------------------
def test_nachos_may_conflict_event_stream():
    """A conflicting MAY pair under NACHOS: the comparator fires, flags
    the overlap, and the load is satisfied by a runtime forward."""
    tracer = Tracer()
    _, _, sim = run_traced("nachos", [{"s1": 3, "s2": 3}], tracer=tracer)
    checks = tracer.of_kind(COMPARATOR_CHECK)
    assert len(checks) == 1
    assert checks[0].args["conflict"] is True
    assert sim.backend_stats.comparator_conflicts == 1
    assert len(tracer.of_kind(RUNTIME_FORWARD)) == 1


def test_nachos_may_clear_event_stream():
    tracer = Tracer()
    _, _, sim = run_traced("nachos", [{"s1": 3, "s2": 7}], tracer=tracer)
    checks = tracer.of_kind(COMPARATOR_CHECK)
    assert len(checks) == 1
    assert checks[0].args["conflict"] is False
    assert sim.backend_stats.comparator_conflicts == 0
    assert not tracer.of_kind(RUNTIME_FORWARD)
    assert not tracer.of_kind(ORDER_WAIT)


def test_nachos_sw_may_serializes_as_order_wait():
    """Compiler-only NACHOS has no comparators: the same MAY pair
    serializes — one order-wait span, zero checks."""
    tracer = Tracer()
    _, _, sim = run_traced("nachos-sw", [{"s1": 3, "s2": 3}], tracer=tracer)
    waits = tracer.of_kind(ORDER_WAIT)
    assert len(waits) == 1
    assert waits[0].args["edge"] == "may"
    assert not tracer.of_kind(COMPARATOR_CHECK)
    assert sim.backend_stats.order_waits == 1


def test_event_stream_structure():
    """Events carry invocation indices and land in time order per kind."""
    tracer = Tracer()
    envs = [{"s1": 3, "s2": 3}, {"s1": 1, "s2": 5}]
    run_traced("nachos", envs, tracer=tracer)
    invs = tracer.of_kind(INVOCATION)
    assert [e.inv for e in invs] == [0, 1]
    assert len(tracer.of_kind(MEM_STORE)) == 2
    assert len(tracer.of_kind(MEM_LOAD)) + len(
        tracer.of_kind(RUNTIME_FORWARD)
    ) >= 2
    for e in tracer.events:
        assert e.inv >= 0
        assert e.t >= 0
        assert e.dur >= 0


# ---------------------------------------------------------------------------
# Counter <-> event contract
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_backend_counts_reproduce_stats(backend):
    tracer = Tracer()
    envs = [{"s1": 3, "s2": 3}, {"s1": 3, "s2": 7}] * 3
    _, _, sim = run_traced(backend, envs, tracer=tracer)
    assert backend_counts(tracer.events) == sim.backend_stats.as_dict(
        rates=False
    )


def may_partial_pair():
    """Store/load whose symbolic windows can overlap *partially* (never
    exactly), so a runtime conflict serializes instead of forwarding."""
    a = MemObject("a", 8192, base_addr=0x1000)
    b = RegionBuilder("may-partial")
    x = b.input("x")
    b.store(a, AffineExpr.of(syms={Sym("s1"): 8}), value=x, width=8)
    b.load(a, AffineExpr.of(syms={Sym("s2"): 4}, const=4), width=4)
    return b.build()


@pytest.mark.parametrize("backend", ["nachos", "nachos-sw"])
def test_backend_counts_contract_partial_overlap_serialization(backend):
    """The conflicting-MAY *serialization* path (partial overlap, no
    exact match to forward from) also keeps the one-event-per-counter
    contract: the order-wait counter bumped when the younger op stalls
    behind the flagged store has a matching ORDER_WAIT event."""
    tracer = Tracer()
    # s1=1, s2=1: store [8,16), load [8,12) — conflict, not exact.
    # s1=1, s2=5: store [8,16), load [24,28) — disjoint.
    envs = [{"s1": 1, "s2": 1}, {"s1": 1, "s2": 5}] * 2
    _, _, sim = run_traced(backend, envs, build_fn=may_partial_pair,
                           tracer=tracer)
    assert backend_counts(tracer.events) == sim.backend_stats.as_dict(
        rates=False
    )
    if backend == "nachos":
        assert sim.backend_stats.comparator_conflicts == 2
        assert not tracer.of_kind(RUNTIME_FORWARD)
        assert sim.backend_stats.order_waits >= 2
        assert len(tracer.of_kind(ORDER_WAIT)) == sim.backend_stats.order_waits


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------
def test_chrome_trace_schema():
    tracer = Tracer()
    recorder = TimelineRecorder()
    engine, graph, _ = run_traced(
        "nachos", [{"s1": 3, "s2": 3}], tracer=tracer, recorder=recorder
    )
    trace = chrome_trace(
        tracer,
        graph=graph,
        placement=engine.placement,
        region="may-pair",
        backend="nachos",
    )
    # Round-trips through JSON.
    events = json.loads(json.dumps(trace))["traceEvents"]
    assert events
    phases = set()
    for e in events:
        assert isinstance(e["name"], str) and e["name"]
        assert e["ph"] in ("X", "i", "M", "C")
        assert isinstance(e["pid"], int)
        phases.add(e["ph"])
        if e["ph"] == "M":
            assert e["args"]["name"]
            continue
        assert isinstance(e["ts"], (int, float))
        if e["ph"] == "X":
            assert e["dur"] >= 1
        elif e["ph"] == "i":
            assert e["s"] == "t"
    # Spans, instants, and metadata all present.
    assert {"X", "M"} <= phases
    # The three track groups have process names.
    names = {
        (e["pid"], e["args"]["name"])
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert {pid for pid, _ in names} == {0, 1, 2}


def test_chrome_trace_backend_tracks():
    tracer = Tracer()
    engine, graph, _ = run_traced("opt-lsq", [{"s1": 3, "s2": 3}],
                                  tracer=tracer)
    trace = chrome_trace(tracer, graph=graph, placement=engine.placement)
    cats = {e.get("cat") for e in trace["traceEvents"]}
    assert "bloom.probe" in cats
    assert "lsq.enqueue" in cats
    # Occupancy doubles as a counter series.
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    assert counters and all(
        "entries" in e["args"] for e in counters
    )


def test_order_wait_latencies():
    tracer = Tracer()
    run_traced("nachos-sw", [{"s1": 3, "s2": 3}], tracer=tracer)
    lats = order_wait_latencies(tracer)
    assert len(lats) == 1 and lats[0] >= 0


# ---------------------------------------------------------------------------
# Disabled path: zero events, identical results
# ---------------------------------------------------------------------------
def test_null_tracer_is_default_and_inert():
    engine, _, _ = run_traced("nachos", [{"s1": 3, "s2": 3}])
    assert engine.tracer is NULL_TRACER
    assert engine._trace is None
    assert NULL_TRACER.events == ()
    assert len(NULL_TRACER) == 0
    NULL_TRACER.emit("anything", 0)
    assert NULL_TRACER.events == ()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_traced_run_result_byte_identical(backend):
    """Tracing must never perturb simulation: the SimResult of a traced
    run pickles byte-for-byte identical to the untraced run."""
    envs = [{"s1": 3, "s2": 3}, {"s1": 3, "s2": 7}]
    _, _, plain = run_traced(backend, envs)
    _, _, traced = run_traced(backend, envs, tracer=Tracer())
    assert pickle.dumps(plain) == pickle.dumps(traced)


# ---------------------------------------------------------------------------
# Timeline (start times + O(1) lookup)
# ---------------------------------------------------------------------------
def test_timeline_records_start_times():
    recorder = TimelineRecorder()
    _, graph, _ = run_traced("nachos", [{"s1": 3, "s2": 3}],
                             recorder=recorder)
    assert len(recorder) == 1
    timeline = recorder.invocations[0]
    for op in graph.memory_ops:
        timing = timeline.timing_of(op.op_id)
        assert timing.start >= timeline.start
        assert timing.complete >= timing.start
        assert timing.duration == timing.complete - timing.start
        assert timeline.completion_of(op.op_id) == timing.complete
        assert timeline.start_of(op.op_id) == timing.start


def test_timeline_lookup_is_dict_backed():
    timeline = InvocationTimeline(index=0, start=0, end=10)
    timeline.add(OpTiming(op_id=7, opcode="load", name="ld", start=2,
                          complete=5))
    assert timeline.completion_of(7) == 5
    with pytest.raises(KeyError):
        timeline.completion_of(99)


# ---------------------------------------------------------------------------
# BackendStats derived rates
# ---------------------------------------------------------------------------
def test_backend_stats_rates_guard_zero_division():
    empty = BackendStats()
    for name in (
        "misprediction_rate",
        "bloom_hit_rate",
        "cam_check_rate",
        "conflict_rate",
        "forward_rate",
        "order_wait_fraction",
        "replay_rate",
    ):
        assert getattr(empty, name) == 0.0
    assert empty.mde_resolutions == 0


def test_backend_stats_rates_values():
    stats = BackendStats(
        comparator_checks=10,
        comparator_conflicts=4,
        runtime_forwards=2,
        order_waits=10,
    )
    assert stats.conflict_rate == pytest.approx(0.4)
    assert stats.forward_rate == pytest.approx(0.5)
    assert stats.mde_resolutions == 20
    assert stats.order_wait_fraction == pytest.approx(0.5)
    d = stats.as_dict()
    assert d["comparator_checks"] == 10
    assert d["conflict_rate"] == pytest.approx(0.4)
    assert set(BackendStats.COUNTERS) <= set(d)
    assert "conflict_rate" not in stats.as_dict(rates=False)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
def test_metrics_registry_primitives(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(4)
    reg.gauge("g").set(0.25)
    reg.histogram("h").observe_many([1, 2, 3, 4, 100])
    assert reg.counter("c").value == 5
    assert reg.histogram("h").percentile(50) == 3
    with pytest.raises(TypeError):
        reg.gauge("c")
    path = tmp_path / "m.json"
    reg.write_json(str(path))
    data = json.loads(path.read_text())
    assert data["c"] == {"type": "counter", "value": 5}
    assert data["g"]["value"] == 0.25
    assert data["h"]["count"] == 5 and data["h"]["max"] == 100.0


def test_histogram_edge_cases():
    reg = MetricsRegistry()
    empty = reg.histogram("empty")
    # Empty histograms report 0.0 at every quantile and a bare count.
    assert empty.percentile(0) == 0.0
    assert empty.percentile(50) == 0.0
    assert empty.percentile(100) == 0.0
    assert empty.summary() == {"count": 0}
    # A single sample IS every quantile.
    single = reg.histogram("single")
    single.observe(7.5)
    assert single.percentile(0) == 7.5
    assert single.percentile(50) == 7.5
    assert single.percentile(100) == 7.5
    assert single.summary()["mean"] == 7.5
    # Out-of-range quantiles are caller bugs, not clamped.
    with pytest.raises(ValueError):
        single.percentile(101)
    with pytest.raises(ValueError):
        single.percentile(-0.1)
    with pytest.raises(ValueError):
        empty.percentile(200)


def test_metrics_registry_merge():
    a = MetricsRegistry()
    a.counter("c").inc(3)
    a.gauge("g").set(0.25)
    a.histogram("h").observe_many([1.0, 2.0])
    a.counter("only_a").inc()
    b = MetricsRegistry()
    b.counter("c").inc(4)
    b.gauge("g").set(0.75)
    b.histogram("h").observe_many([3.0, 4.0])
    b.histogram("only_b").observe(9.0)

    merged = a.merge(b)
    assert merged is a  # in place, chainable
    assert a.counter("c").value == 7          # counters sum
    assert a.gauge("g").value == 0.75         # gauges take the newer value
    assert a.histogram("h").values == [1.0, 2.0, 3.0, 4.0]  # samples pool
    assert a.counter("only_a").value == 1
    assert a.histogram("only_b").values == [9.0]
    # Merging never mutates the source registry.
    assert b.counter("c").value == 4 and b.histogram("h").count == 2

    clash = MetricsRegistry()
    clash.gauge("c").set(1.0)
    with pytest.raises(TypeError):
        a.merge(clash)


def test_metrics_from_run():
    tracer = Tracer()
    _, _, sim = run_traced("nachos-sw", [{"s1": 3, "s2": 3}], tracer=tracer)
    reg = metrics_from_run(sim, tracer=tracer)
    assert reg.counter("sim.cycles").value == sim.cycles
    assert reg.counter("sim.backend.order_waits").value == 1
    assert reg.histogram("sim.order_wait_latency").count == 1
    assert reg.gauge("sim.backend.order_wait_fraction").value == 1.0


# ---------------------------------------------------------------------------
# Traced-run entry point (the `nachos-repro trace` engine)
# ---------------------------------------------------------------------------
def test_resolve_workload():
    assert resolve_workload("gather").name.startswith("micro.gather")
    assert resolve_workload("micro.gather").name.startswith("micro.gather")
    assert "path0" in resolve_workload("bzip2").name
    with pytest.raises(KeyError):
        resolve_workload("no-such-region")


def test_traced_run_matches_stats_and_is_correct():
    run = traced_run(resolve_workload("scatter"), "nachos", invocations=4)
    assert run.correct
    assert run.tracer.events
    assert backend_counts(run.tracer.events) == run.sim.backend_stats.as_dict(
        rates=False
    )
    assert run.sim.invocations == 4
