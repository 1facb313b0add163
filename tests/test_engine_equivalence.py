"""Differential equivalence suite: reference vs fast.

The fast engine (:class:`repro.sim.fast.FastEngine`) replays invocation
schedule templates instead of re-simulating the static compute subgraph
event by event.  The contract is *byte-identity*: for any (region,
backend, invocation stream),
``pickle.dumps(SimResult)`` must equal the reference engine's — same
cycles, load values, memory image, energy counts, cache stats, backend
stats, everything.  This suite enforces that contract over three
corpora:

* the full memory-ordering litmus suite (every pattern x every backend,
  multi-invocation so templates actually get replayed),
* a fixed-seed slice of the differential alias fuzzer's region
  generator (dense MAY graphs, late addresses, slow stores, ...),
  through the fuzzer's own ``engines`` check on each region's set-up,
* one real compiled region per SPEC benchmark, plus the two micro
  regions of the cache-on chaos sweep, driven through ``run_system``
  against the same set-up with the reference engine built directly,
* every suite region under every backend with a timeline recorder
  attached, so the fast engine's prefilled static and dead-tail spans
  are compared op by op.

Plus the seams: the rule by which the run picks its engine (fast,
except for an enabled tracer or link contention), and the fuzzer's
``engines`` check, which every campaign runs on each (region, backend).
"""

from __future__ import annotations

import pickle
import warnings

import pytest

from tests.test_litmus import BACKENDS, LITMUS, NEEDS_MDES

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.ir import AffineExpr, MemObject, RegionBuilder
from repro.memory import MemoryHierarchy
from repro.obs.tracer import Tracer
from repro.sim import (
    DataflowEngine,
    EngineConfig,
    FastEngine,
    make_engine,
    resolve_engine_mode,
)
from repro.sim.fast import _PUSH
from repro.sim.timeline import TimelineRecorder
from repro.verify.fuzz import CHECKS, SYSTEMS, build_setup, fuzz, generate_spec
from repro.workloads.generator import build_workload
from repro.workloads.suite import benchmark_names, get_spec

FUZZ_SEED = 0
FUZZ_SPECS = 200
FUZZ_CHUNK = 25


def _result_bytes(build_fn, backend_name, envs, engine_cls):
    """Pickled SimResult for one litmus pattern on one engine class."""
    graph = build_fn()
    if backend_name in NEEDS_MDES:
        compile_region(graph)
    else:
        graph.clear_mdes()
    engine = engine_cls(
        graph, place_region(graph), MemoryHierarchy(), BACKENDS[backend_name]()
    )
    return pickle.dumps(engine.run(envs))


# ---------------------------------------------------------------------------
# Corpus 1: litmus patterns
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("litmus", sorted(LITMUS))
def test_litmus_equivalence(backend, litmus):
    build_fn, envs = LITMUS[litmus]
    # x3 invocations: the template is captured on the first and
    # *replayed* on the rest, so single-invocation runs would never
    # exercise the replay path.
    envs = envs * 3
    ref = _result_bytes(build_fn, backend, envs, DataflowEngine)
    fast = _result_bytes(build_fn, backend, envs, FastEngine)
    assert ref == fast, f"{litmus}/{backend}: SimResults diverge"


# ---------------------------------------------------------------------------
# Corpus 2: fuzzer regions (fixed seed => fixed corpus)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range(FUZZ_SPECS // FUZZ_CHUNK))
def test_fuzz_corpus_equivalence(chunk):
    """The fuzzer's ``engines`` check over each region's one set-up."""
    engines = CHECKS["engines"]
    for index in range(chunk * FUZZ_CHUNK, (chunk + 1) * FUZZ_CHUNK):
        spec = generate_spec(FUZZ_SEED, index)
        setup = build_setup(spec)
        for system in SYSTEMS:
            findings = engines.findings(setup, system, None)
            assert findings == [], f"{spec.name}/{system}: {findings}"


def test_fuzz_engines_both_wiring():
    """Every campaign runs the ``engines`` check once per (region,
    backend) and stays clean."""
    result = fuzz(5, seed=3)
    assert result.ok, [f.describe() for f in result.failures]
    assert result.checks["engines"] == 5 * len(SYSTEMS)


# ---------------------------------------------------------------------------
# Corpus 3: real compiled regions through run_system
# ---------------------------------------------------------------------------
#: The two micro regions of the cache-on chaos sweep
#: (``tests/test_runtime_chaos.py``), at its invocation count.
MICRO_REGIONS = {"micro.stream_triad": 8, "micro.scatter": 8}


@pytest.mark.parametrize("region", benchmark_names() + sorted(MICRO_REGIONS))
def test_real_region_equivalence(region, no_cache, monkeypatch):
    """Each system's ``run_system`` result equals the one the same set-up
    gives with the reference engine built directly in place of
    ``make_engine``."""
    from repro.experiments import common
    from repro.obs.runner import resolve_workload

    workload = resolve_workload(region)
    invocations = MICRO_REGIONS.get(region, 4)
    built = []

    def spy(*args, **kwargs):
        built.append(make_engine(*args, **kwargs))
        return built[-1]

    def reference(*args, **kwargs):
        built.append(DataflowEngine(*args, **kwargs))
        return built[-1]

    for system in sorted(BACKENDS):
        monkeypatch.setattr(common, "make_engine", spy)
        fast = common.run_system(workload, system, invocations=invocations)
        monkeypatch.setattr(common, "make_engine", reference)
        ref = common.run_system(workload, system, invocations=invocations)
        assert [type(e) for e in built] == [FastEngine, DataflowEngine], system
        built.clear()
        assert pickle.dumps(ref.sim) == pickle.dumps(fast.sim), (
            f"{region}/{system}: SimResults diverge"
        )
        assert fast.correct


# ---------------------------------------------------------------------------
# Corpus 4: every suite region x backend, with timelines recorded
# ---------------------------------------------------------------------------
SUITE_INVOCATIONS = 6
SUITE_CHUNKS = 3


def _suite_graphs(bench):
    """(workload, bare graph, compiled graph) of one suite region."""
    workload = build_workload(get_spec(bench), path_index=0)
    bare = workload.graph.clone()
    bare.clear_mdes()
    compiled = workload.graph.clone()
    compile_region(compiled)
    return workload, bare, compiled


def _recorded_run(graph, envs, backend_name, engine_cls):
    recorder = TimelineRecorder()
    engine = engine_cls(
        graph,
        place_region(graph),
        MemoryHierarchy(),
        BACKENDS[backend_name](),
        recorder=recorder,
    )
    result = pickle.dumps(engine.run(envs))
    return result, recorder.invocations, engine


@pytest.mark.parametrize("chunk", range(SUITE_CHUNKS))
def test_suite_recorded_equivalence(chunk):
    n_tails = 0
    for bench in benchmark_names()[chunk::SUITE_CHUNKS]:
        workload, bare, compiled = _suite_graphs(bench)
        envs = workload.invocations(SUITE_INVOCATIONS)
        for backend in sorted(BACKENDS):
            graph = compiled if backend in NEEDS_MDES else bare
            ref, ref_tl, _ = _recorded_run(graph, envs, backend, DataflowEngine)
            fast, fast_tl, engine = _recorded_run(graph, envs, backend, FastEngine)
            assert ref == fast, f"{bench}/{backend}: SimResults diverge"
            assert ref_tl == fast_tl, f"{bench}/{backend}: timelines diverge"
            n_tails += len(engine._template.tail_ids)
    # The chunk exercises the closed-form tail walk, so it can fail.
    assert n_tails > 0


def test_dead_tails_run_no_live_events():
    """A tail feeds only tails, no template action targets one, and
    neither the dynamic op list nor the live delivery plans hold one."""
    n_tails = 0
    for bench in benchmark_names():
        workload, bare, _ = _suite_graphs(bench)
        engine = FastEngine(
            bare, place_region(bare), MemoryHierarchy(), BACKENDS["opt-lsq"]()
        )
        engine.run(workload.invocations(1))
        tpl = engine._template
        tails = tpl.tail_ids
        n_tails += len(tails)
        for oid in tails:
            assert not bare.op(oid).is_memory
            assert oid not in tpl.static_ids
            assert all(p[0].op_id in tails for p in engine._plans[oid])
        actions = [
            a for acts in (tpl.kick_actions, *tpl.event_actions) for a in acts
        ]
        assert not {a[1] for a in actions if a[0] != _PUSH} & tails, bench
        assert not {op.op_id for op in engine._dyn_ops} & tails, bench
        assert not {
            p[0].op_id for plan in engine._live_plans.values() for p in plan
        } & tails, bench
        assert [t[0] for t in tpl.tail_program] == sorted(tails)
    assert n_tails > 0


def _late_static_tail_region():
    """A load feeds a two-op tail chain whose other inputs come from
    long static fdiv chains, so each tail starts at its static arrival
    (the template constant), not at its dynamic one."""
    b = RegionBuilder("late-static-tail")
    x = b.input("x")
    loaded = b.load(MemObject("a", 8192, base_addr=0x1000), AffineExpr.constant(0))
    slow = x
    for _ in range(12):
        slow = b.fdiv(slow, x)
    head = b.add(loaded, slow)
    for _ in range(6):
        slow = b.fdiv(slow, x)
    b.add(head, slow)
    return b.build(), loaded.op_id, head.op_id


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_tail_start_from_static_arrival(backend):
    graph, loaded, head = _late_static_tail_region()
    envs = [{"x": 3}] * 3
    ref, ref_tl, _ = _recorded_run(graph, envs, backend, DataflowEngine)
    fast, fast_tl, engine = _recorded_run(graph, envs, backend, FastEngine)
    assert ref == fast
    assert ref_tl == fast_tl
    # Both adds are tails, and each waits on its static input.
    assert len(engine._template.tail_ids) == 2
    head_run = engine._template.tail_program[0]
    assert head_run[0] == head and head_run[2] > 0
    for tl in fast_tl:
        assert tl.start_of(head) > tl.completion_of(loaded) + 1
        assert tl.end == max(t.complete for t in tl.timings)


def test_one_template_capture_per_region(monkeypatch):
    """opt-lsq's bare graph and the compiled graph nachos-sw and nachos
    simulate have the same ops and placement: one capture serves all."""
    from repro.experiments import common
    from repro.runtime.cache import configure_cache, get_cache

    captures = []
    build = FastEngine._build_template

    def counting(engine):
        captures.append(engine.graph.name)
        return build(engine)

    monkeypatch.setattr(FastEngine, "_build_template", counting)
    prev = get_cache()
    configure_cache(enabled=False)
    common.clear_memos()
    try:
        names = []
        for bench in benchmark_names()[:2]:
            workload = build_workload(get_spec(bench), path_index=0)
            names.append(workload.graph.name)
            for system in common.SYSTEMS:
                run = common.run_system(workload, system, invocations=3)
                assert run.correct
    finally:
        common.clear_memos()
        configure_cache(root=prev.root, enabled=prev.enabled)
    assert captures == names


# ---------------------------------------------------------------------------
# The run picks its engine
# ---------------------------------------------------------------------------
def _micro_engine_parts():
    build_fn, envs = LITMUS["forwarding_chain"]
    graph = build_fn()
    graph.clear_mdes()
    return graph, place_region(graph), MemoryHierarchy(), BACKENDS["opt-lsq"]()


def test_default_rule_resolves_contention_to_reference():
    """Link contention resolves to ``reference`` before any engine is
    built; a plain config, and no config at all, resolve to ``fast``."""
    assert resolve_engine_mode(EngineConfig(model_link_contention=True)) == (
        "reference"
    )
    assert resolve_engine_mode(EngineConfig()) == "fast"
    assert resolve_engine_mode() == "fast"


def test_default_rule_builds_fast_engine():
    graph, placement, hierarchy, backend = _micro_engine_parts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng = make_engine(graph, placement, hierarchy, backend)
    assert type(eng) is FastEngine


def test_default_rule_tracer_builds_reference_silently():
    graph, placement, hierarchy, backend = _micro_engine_parts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng = make_engine(
            graph, placement, hierarchy, backend, tracer=Tracer()
        )
    assert type(eng) is DataflowEngine


def test_default_rule_link_contention_builds_reference_silently():
    graph, placement, hierarchy, backend = _micro_engine_parts()
    cfg = EngineConfig(model_link_contention=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng = make_engine(graph, placement, hierarchy, backend, config=cfg)
    assert type(eng) is DataflowEngine


def test_traced_run_default_raises_no_fallback():
    """``nachos-repro trace`` / ``traced_run`` runs the reference engine
    and warns about nothing."""
    from repro.obs.runner import traced_run
    from repro.workloads.micro import build_micro

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = traced_run(build_micro("gather"), "nachos", invocations=2)
    assert run.correct
    assert run.tracer.events


def test_make_engine_builds_requested_class():
    """The tracer and the config are the whole request: fast for neither,
    reference for an enabled tracer or link contention, and
    ``resolve_engine_mode`` names the class ``make_engine`` builds."""
    contention = EngineConfig(model_link_contention=True)
    for config, tracer, cls in [
        (None, None, FastEngine),
        (EngineConfig(), None, FastEngine),
        (None, Tracer(), DataflowEngine),
        (contention, None, DataflowEngine),
        (contention, Tracer(), DataflowEngine),
    ]:
        eng = make_engine(
            *_micro_engine_parts(), config=config, tracer=tracer
        )
        assert type(eng) is cls, (config, tracer)
        mode = resolve_engine_mode(config, tracer)
        assert mode == ("fast" if cls is FastEngine else "reference")


@pytest.mark.parametrize("cls", [FastEngine])
def test_fast_engine_direct_construction_refuses_tracer(cls):
    graph, placement, hierarchy, backend = _micro_engine_parts()
    with pytest.raises(ValueError):
        cls(graph, placement, hierarchy, backend, tracer=Tracer())


def test_fast_engine_direct_construction_refuses_link_contention():
    graph, placement, hierarchy, backend = _micro_engine_parts()
    with pytest.raises(ValueError, match="model_link_contention"):
        FastEngine(
            graph, placement, hierarchy, backend,
            config=EngineConfig(model_link_contention=True),
        )


def test_disabled_tracer_does_not_trigger_fallback():
    graph, placement, hierarchy, backend = _micro_engine_parts()
    tracer = Tracer()
    tracer.enabled = False
    eng = make_engine(graph, placement, hierarchy, backend, tracer=tracer)
    assert type(eng) is FastEngine
