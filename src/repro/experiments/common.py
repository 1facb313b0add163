"""Shared experiment plumbing: build, compile, place, simulate, compare.

The three evaluated systems (paper Section III):

* ``opt-lsq``    — no MDEs; the banked CAM + bloom LSQ orders memory,
* ``nachos-sw``  — full 4-stage pipeline; MAY edges serialized,
* ``nachos``     — full pipeline; MAY edges runtime-checked,

plus the ablation/extension systems:

* ``baseline-sw`` — stages 1+3 only (no inter-procedural, no polyhedral),
  enforced in software (Figure 12),
* ``spec-lsq``    — the store-set speculative LSQ ablation,
* ``serial-mem``  — strictly in-order memory (the Table I CFU class),
* ``oracle-sw``   — software-only with perfect trace-derived alias
  knowledge (the limit study's compiler ceiling).

Every system places, simulates and golden-checks ``workload.graph``
itself and differs only in the tuple of memory dependency edges its
backend enforces (:func:`_system_mdes`).  The compiler returns its edges
without installing them, so the workload stays pristine across systems
and figures (and is safe to ship to worker processes).

Sim records and the oracle's edges live only in the content-addressed
on-disk cache (:mod:`repro.runtime.cache`), shared across processes and
invocations; a record's correctness is the golden verdict, computed on
a cache miss and stored with it.  Compiles are also kept in an
in-process table, so compile-only figures reuse one compile across a
``nachos-repro all``; ``nachos-sw`` and ``nachos`` share one
``PipelineConfig.full()`` compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.cgra.placement import Placement, place_region
from repro.compiler.coverage import CoverageError, check_sync_coverage
from repro.compiler.oracle_labels import compile_with_oracle
from repro.compiler.pipeline import AliasPipeline, PipelineConfig, PipelineResult
from repro.ir.graph import DFGraph, MemoryDependencyEdge
from repro.memory.config import HierarchyConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.runtime.cache import ResultCache, get_cache
from repro.runtime.fingerprint import (
    combine,
    config_fingerprint,
    envs_fingerprint,
    graph_fingerprint,
)
from repro.sim.backends.lsq import LSQConfig, OptLSQBackend
from repro.sim.backends.nachos_hw import NachosBackend
from repro.sim.backends.nachos_sw import NachosSWBackend
from repro.sim.backends.serial import SerialMemBackend
from repro.sim.backends.spec_lsq import SpecLSQBackend
from repro.sim.config import EngineConfig
from repro.sim.factory import make_engine
from repro.sim.oracle import GoldenResult, golden_execute
from repro.sim.result import SimResult
from repro.workloads.generator import Workload

SYSTEMS = ("opt-lsq", "nachos-sw", "nachos")

#: Default invocation count per region: enough to reach steady cache
#: behaviour while keeping the whole 27-benchmark sweep fast.
DEFAULT_INVOCATIONS = 40


@dataclass
class SystemRun:
    """One system's simulation of one workload."""

    system: str
    sim: SimResult
    correct: bool
    #: How many MDEs this system's backend enforced (0 for the LSQ/serial
    #: systems, the oracle's edge count for ``oracle-sw``).
    n_mdes: int = 0


@dataclass
class ComparisonResult:
    """All systems on one workload."""

    workload: Workload
    runs: Dict[str, SystemRun] = field(default_factory=dict)

    def cycles(self, system: str) -> int:
        return self.runs[system].sim.cycles

    def slowdown_pct(self, system: str, baseline: str = "opt-lsq") -> float:
        """Positive = *system* slower than *baseline* (Figure 11/15 axis)."""
        return self.runs[system].sim.slowdown_pct_vs(self.runs[baseline].sim)

    def energy(self, system: str) -> float:
        return self.runs[system].sim.total_energy

    @property
    def all_correct(self) -> bool:
        return all(r.correct for r in self.runs.values())


_KNOWN_SYSTEMS = SYSTEMS + ("baseline-sw", "spec-lsq", "serial-mem", "oracle-sw")


def _unknown_system(system: str) -> ValueError:
    return ValueError(f"unknown system {system!r}; expected one of {_KNOWN_SYSTEMS}")


def _pipeline_for(system: str) -> Optional[PipelineConfig]:
    if system in ("opt-lsq", "spec-lsq", "serial-mem", "oracle-sw"):
        return None
    if system == "baseline-sw":
        return PipelineConfig.baseline_compiler()
    return PipelineConfig.full()


def _backend_for(system: str, lsq_config: Optional[LSQConfig]):
    if system == "opt-lsq":
        return OptLSQBackend(lsq_config)
    if system == "spec-lsq":
        return SpecLSQBackend()
    if system in ("nachos-sw", "baseline-sw", "oracle-sw"):
        return NachosSWBackend()
    if system == "nachos":
        return NachosBackend()
    if system == "serial-mem":
        return SerialMemBackend()
    raise _unknown_system(system)


# ----------------------------------------------------------------------
# In-process memo tables (sim records and oracle edges are on disk only)
# ----------------------------------------------------------------------
_compile_memo: Dict[Tuple[str, str], PipelineResult] = {}
_placement_memo: Dict[str, Placement] = {}
# Every system simulating one workload runs ``workload.graph`` itself, so
# all of them consume one address stream and check against one golden
# result.  Like placement, they are kept per workload fingerprint, one
# trace at a time: ``(envs_fp, address streams, golden result)``, and a
# newer trace replaces the older one.  A sweep runs every system of a
# region at one invocation count, so it loses no reuse, and a daemon
# serving many invocation counts holds one trace's worth per region.
_trace_memo: Dict[str, Tuple[str, list, GoldenResult]] = {}


def clear_memos() -> None:
    """Drop the in-process memo tables (tests / benchmarks)."""
    _compile_memo.clear()
    _placement_memo.clear()
    _trace_memo.clear()


def workload_fingerprint(workload: Workload) -> str:
    """Content fingerprint of the workload's (pristine) region graph.

    Memoized on the workload object — valid because nothing in the
    experiment layer mutates ``workload.graph`` anymore.
    """
    fp = getattr(workload, "_content_fp", None)
    if fp is None:
        fp = graph_fingerprint(workload.graph)
        workload._content_fp = fp
    return fp


def task_fingerprint(
    workload: Workload,
    system: str,
    invocations: int,
    warm: bool = True,
) -> str:
    """Content fingerprint of one sweep task (the serve dedup key).

    Depends only on what determines the task's result — the pristine
    region graph, the system, the invocation count, warmup and, through
    :func:`combine`, the simulator's code —
    never on task order or process accidents, so concurrent requests
    that share a task recognize each other.
    """
    return combine(
        "sweeptask",
        workload_fingerprint(workload),
        system,
        str(int(invocations)),
        "warm" if warm else "cold",
    )


def compile_workload(
    workload: Workload, cfg: PipelineConfig, cache: Optional[ResultCache] = None
) -> PipelineResult:
    """Run the alias pipeline on the workload's graph; the MDEs come back
    as ``result.mdes`` and are never installed.

    Cached in-process per (workload, config) and on disk, so the full
    pipeline runs once per region per config across every figure —
    ``nachos-sw`` and ``nachos`` share the same ``PipelineConfig.full()``
    result.  The disk entry is stored without its graph, and
    ``result.graph is workload.graph`` on every path.

    Each fresh compile certifies its own MDE coverage
    (:func:`~repro.compiler.coverage.check_sync_coverage`) before it is
    cached; a gap raises :class:`~repro.compiler.coverage.CoverageError`
    naming the uncovered pair, so no engine runs on it.
    """
    cache = cache if cache is not None else get_cache()
    wfp = workload_fingerprint(workload)
    cfg_fp = config_fingerprint(cfg)
    memo_key = (wfp, cfg_fp)
    result = _compile_memo.get(memo_key)
    if result is not None:
        if result.graph is not workload.graph:
            # An equal workload built anew gets its own graph back.
            result = _compile_memo[memo_key] = replace(result, graph=workload.graph)
        return result
    key = combine("compile", wfp, cfg_fp)
    result = cache.get(key)
    if result is ResultCache.MISS:
        result = AliasPipeline(cfg).run(workload.graph, apply_mdes=False)
        # Only a certified compile reaches the cache or an engine.  On a
        # full-config compile the check reads the oracle state stage 5
        # has just hung on the graph.
        report = check_sync_coverage(workload.graph, result.mdes)
        if not report.ok:
            raise CoverageError(report.describe())
        # The entry leaves the graph out: every reader has the workload.
        cache.put(key, replace(result, graph=None))
    else:
        result = replace(result, graph=workload.graph)
    _compile_memo[memo_key] = result
    return result


def _system_mdes(
    workload: Workload,
    wfp: str,
    system: str,
    envs,
    envs_fp: str,
    cache: ResultCache,
) -> Tuple[MemoryDependencyEdge, ...]:
    """The MDEs *system*'s backend enforces over ``workload.graph``.

    None for ``opt-lsq``, ``spec-lsq`` and ``serial-mem``; the compiler's
    (:func:`compile_workload`) for ``baseline-sw``, ``nachos-sw`` and
    ``nachos``; for ``oracle-sw``
    the trace-derived perfect compiler's over *envs*, cached on disk as
    the edge tuple alone.
    """
    cfg = _pipeline_for(system)
    if cfg is not None:
        return tuple(compile_workload(workload, cfg, cache).mdes)
    if system != "oracle-sw":
        return ()
    key = combine("oracle", wfp, envs_fp)
    mdes = cache.get(key)
    if mdes is ResultCache.MISS:
        mdes = compile_with_oracle(workload.graph, envs)
        cache.put(key, mdes)
    return mdes


def _placement(wfp: str, graph: DFGraph) -> Placement:
    """Placement is MDE-blind, so one placement serves every system."""
    placement = _placement_memo.get(wfp)
    if placement is None:
        placement = _placement_memo[wfp] = place_region(graph)
    return placement


def run_system(
    workload: Workload,
    system: str,
    invocations: int = DEFAULT_INVOCATIONS,
    hierarchy_config: Optional[HierarchyConfig] = None,
    lsq_config: Optional[LSQConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    warm: bool = True,
) -> SystemRun:
    """Compile (as the system requires), place, and simulate one workload.

    ``warm=True`` pre-touches the run's working set *in the shared L2*
    so the measurement reflects steady state (the paper's regions execute
    thousands of iterations and their data is LLC resident); the private
    L1 still filters accesses dynamically, so streaming strides miss L1
    and hit the LLC.

    Results are served from the content-addressed cache when an
    identical (graph, trace, system, configs) combination has run
    before.  ``correct`` is the golden verdict, part of the cached
    record.
    """
    cache = get_cache()
    envs, wfp, envs_fp = _prepare(workload, system, invocations)
    sim_key = _sim_key(
        wfp, envs_fp, system, invocations, warm, hierarchy_config,
        lsq_config, engine_config,
    )
    record = cache.get(sim_key)
    if record is ResultCache.MISS:
        sim, correct, mdes, _placed = _simulate(
            workload, wfp, system, envs, envs_fp, cache, warm,
            hierarchy_config, lsq_config, engine_config,
        )
        record = (sim, correct, len(mdes))
        cache.put(sim_key, record)
    sim, correct, n_mdes = record
    return SystemRun(system=system, sim=sim, correct=correct, n_mdes=n_mdes)


def _sim_key(
    wfp: str,
    envs_fp: str,
    system: str,
    invocations: int,
    warm: bool,
    hierarchy_config: Optional[HierarchyConfig],
    lsq_config: Optional[LSQConfig],
    engine_config: Optional[EngineConfig],
) -> str:
    """The sim cache key of one :func:`run_system` call.

    The engine config decides which engine runs, and both engines are
    bit-exact, so the key carries no engine term.  The compile enters
    only through its config, so the key is known before anything
    compiles.
    """
    return combine(
        "sim",
        wfp,
        envs_fp,
        system,
        _compile_fingerprint(system),
        str(invocations),
        "warm" if warm else "cold",
        config_fingerprint(hierarchy_config),
        config_fingerprint(lsq_config),
        config_fingerprint(engine_config),
    )


@lru_cache(maxsize=None)
def _compile_fingerprint(system: str) -> str:
    """The sim key's compile term for *system*: its pipeline config's
    fingerprint, a constant, so each process hashes it once per system."""
    if system == "oracle-sw":
        return "oracle"
    return config_fingerprint(_pipeline_for(system))


def sim_cached(
    workload: Workload,
    system: str,
    invocations: int = DEFAULT_INVOCATIONS,
    warm: bool = True,
    hierarchy_config: Optional[HierarchyConfig] = None,
    lsq_config: Optional[LSQConfig] = None,
    engine_config: Optional[EngineConfig] = None,
) -> bool:
    """Whether :func:`run_system` with these arguments would read its sim
    record from disk rather than simulate; decided without compiling,
    placing or reading the entry."""
    _envs, wfp, envs_fp = _prepare(workload, system, invocations)
    return get_cache().contains(_sim_key(
        wfp, envs_fp, system, invocations, warm, hierarchy_config,
        lsq_config, engine_config,
    ))


def _prepare(
    workload: Workload, system: str, invocations: int
) -> Tuple[list, str, str]:
    """Check *system*; return the trace and the workload and trace
    fingerprints.

    The trace and its fingerprint are memoized on the workload, like
    ``_content_fp``: a pool batch keys each cache hit and then serves
    it, and every system of a region shares one trace, so each is built
    and hashed once.  One trace is kept at a time, as in
    ``_trace_memo``: a newer invocation count replaces the older one.
    Valid because no consumer mutates the envs.
    """
    if system not in _KNOWN_SYSTEMS:
        raise _unknown_system(system)
    trace = getattr(workload, "_trace", None)
    if trace is None or trace[0] != invocations:
        envs = workload.invocations(invocations)
        trace = workload._trace = (invocations, envs, envs_fingerprint(envs))
    _count, envs, envs_fp = trace
    return envs, workload_fingerprint(workload), envs_fp


def _simulate(
    workload: Workload,
    wfp: str,
    system: str,
    envs,
    envs_fp: str,
    cache: ResultCache,
    warm: bool,
    hierarchy_config: Optional[HierarchyConfig] = None,
    lsq_config: Optional[LSQConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    tracer=None,
) -> Tuple[SimResult, bool, Tuple[MemoryDependencyEdge, ...], Placement]:
    """Simulate and golden-check ``workload.graph`` under *system*; return
    the result, its correctness, the enforced MDEs and the placement.

    The set-up comes from the workload-keyed memos and caches: the MDEs
    (compiled as *system* requires) and the placement, and, per trace,
    the address stream and the golden result that every system over
    this workload shares.  :func:`simulate_region` runs it.
    """
    graph = workload.graph
    mdes = _system_mdes(workload, wfp, system, envs, envs_fp, cache)
    placement = _placement(wfp, graph)

    # Evaluate every memory op's address once per invocation: the warm
    # loop and the engine consume the same stream, and every system over
    # this workload and trace reuses it and the golden result.
    memo = _trace_memo.get(wfp)
    if memo is None or memo[0] != envs_fp:
        mem_ops = graph.memory_ops
        addr_streams = [
            {op.op_id: (op.addr.evaluate(env), op.addr.width) for op in mem_ops}
            for env in envs
        ]
        memo = _trace_memo[wfp] = (envs_fp, addr_streams, golden_execute(graph, envs))
    _envs_fp, addr_streams, golden = memo

    sim, correct = simulate_region(
        graph, envs, system, mdes, placement, golden,
        addr_streams=addr_streams, warm=warm, region_name=workload.name,
        hierarchy_config=hierarchy_config, lsq_config=lsq_config,
        engine_config=engine_config, tracer=tracer,
    )
    return sim, correct, mdes, placement


def simulate_region(
    graph: DFGraph,
    envs,
    system: str,
    mdes: Tuple[MemoryDependencyEdge, ...],
    placement: Placement,
    golden: GoldenResult,
    *,
    addr_streams: Optional[list] = None,
    warm: bool = False,
    region_name: Optional[str] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    lsq_config: Optional[LSQConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    tracer=None,
) -> Tuple[SimResult, bool]:
    """Run *graph* over *envs* under *system*, whose backend enforces
    *mdes*, and check it against *golden*; return the result and its
    correctness.

    The one simulation core: the sweep (:func:`_simulate`), traced runs
    and the fuzzer's checks each bring a set-up and run it here, and no
    memo or cache is read or written.  ``warm`` pre-touches the working
    set (*addr_streams*, which it then needs) in the shared L2 first.
    An enabled *tracer* gets the reference engine (:func:`make_engine`).
    """
    hierarchy = MemoryHierarchy(hierarchy_config)
    backend = _backend_for(system, lsq_config)
    engine = make_engine(
        graph, placement, hierarchy, backend, config=engine_config,
        tracer=tracer, mdes=mdes,
    )
    if warm:
        mem_ops = graph.memory_ops
        for amap in addr_streams:
            for op in mem_ops:
                hierarchy.l2.access(amap[op.op_id][0], is_write=op.is_store)
        hierarchy.l2.stats.reset()
    sim = engine.run(envs, region_name=region_name, addr_streams=addr_streams)
    return sim, golden.matches(sim.load_values, sim.memory_image)


def compare_systems(
    workload: Workload,
    invocations: int = DEFAULT_INVOCATIONS,
    systems: tuple = SYSTEMS,
) -> ComparisonResult:
    """Run every requested system on *workload*."""
    result = ComparisonResult(workload=workload)
    for system in systems:
        result.runs[system] = run_system(workload, system, invocations=invocations)
    return result
