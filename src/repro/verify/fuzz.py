"""Differential alias fuzzer over all five disambiguation backends.

Generates adversarial little regions — dense MAY graphs from symbolic
offsets, exact/partial overlap mixes, narrow-within-wide widths,
cache-line-straddling accesses, slow store values, late addresses — and
runs every check of :data:`CHECKS` on each one.

Each region is set up once, the way the sweep sets up a workload
(:func:`build_setup`): one graph with no MDEs installed, one placement,
one full-pipeline compile and one golden run.  Every system runs that
graph and is handed its MDE edge tuple — the compile's for
``nachos-sw``/``nachos``, none for the rest (:meth:`RegionSetup.mdes`).
A check maps ``(setup, system, fault_seed)`` to a list of findings; an
empty list is a pass.  Runs are cold (no L2 pre-touch) and nothing is
read from or written to the sweep's memos or result cache.

Per backend:

* **golden**: a traced run of the sweep's simulation core
  (:func:`repro.experiments.common.simulate_region`) against the
  program-order golden result, and
  :func:`repro.verify.sanitizer.sanitize_trace` over its event stream;
* **engines**: the fast engine's pickled
  :class:`~repro.sim.result.SimResult` is byte-identical to the
  reference engine's, each built by name.

Per region, statically:

* **oracle**: every stage-1..4 NO/MUST verdict of the compile agrees
  with the independent stage-5 separation-logic oracle, asked once per
  region (:func:`repro.compiler.aliasing.stage5.region_verdicts`); a
  contradiction means a compiler stage is unsound;
* **coverage**: the compiled MDE tuple covers every happens-before pair
  the oracle requires (:func:`repro.compiler.coverage.check_sync_coverage`).

Each failure is shrunk to a locally-minimal region on which its check
still has findings (greedy delta debugging over ops, invocations, and op
attributes) and reported as a :class:`FuzzFailure` that
:mod:`repro.verify.reproduce` can serialize into a standalone JSON repro.

Everything is deterministic in the seed: region *k* of ``--seed S`` is
``RegionSpec`` generated from ``random.Random(S * 1_000_003 + k)``;
symbol bounds come from an independent second stream so the op/env
streams of historical seeds are unchanged.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cgra.placement import Placement
from repro.compiler.aliasing.stage5 import OracleVerdict, region_verdicts
from repro.compiler.coverage import check_sync_coverage
from repro.compiler.labels import AliasLabel, AliasMatrix
from repro.compiler.pipeline import AliasPipeline, PipelineConfig, PipelineResult
from repro.experiments import common
from repro.ir import AffineExpr, MemObject, RegionBuilder, Sym
from repro.ir.graph import DFGraph, MemoryDependencyEdge
from repro.memory import MemoryHierarchy
from repro.obs.tracer import Tracer
from repro.sim import DataflowEngine, FastEngine, GoldenResult
from repro.verify.sanitizer import sanitize_trace

#: The systems a campaign runs the per-backend checks under: each one
#: whose backend enforces the full compile's MDEs or none
#: (``common._pipeline_for``).  ``baseline-sw`` and ``oracle-sw`` need a
#: compile of their own.
SYSTEMS = ("nachos", "nachos-sw", "opt-lsq", "serial-mem", "spec-lsq")

#: Offsets chosen to collide: exact duplicates, partial overlaps at
#: every width, and accesses straddling the 64-byte line boundary.
OFFSET_POOL = (0, 1, 2, 4, 6, 8, 12, 16, 56, 60, 62, 63, 64, 66, 72, 120, 124, 128)
WIDTHS = (1, 2, 4, 8)
SYM_VALUES = (0, 1, 2, 3, 4, 6, 8)


@dataclass(frozen=True)
class MemOpSpec:
    """One memory op of a fuzzed region."""

    is_store: bool
    offset: int            # constant byte offset (or base for symbolic)
    width: int
    sym: Optional[str] = None   # symbolic term name (None = constant addr)
    stride: int = 0             # coefficient of the symbolic term
    slow: int = 0               # fdiv-chain length delaying a store value
    late_addr: bool = False     # address arrival gated on a prior load
    value_from_load: bool = False  # store value derived from a prior load


@dataclass(frozen=True)
class RegionSpec:
    """A fuzzed region: ops + invocation environments, fully declarative.

    ``sym_bounds`` optionally declares an inclusive value range per
    symbol name (region-level, so every op sharing the symbol sees the
    same :class:`~repro.ir.address.Sym`).  Declared bounds must contain
    every environment's value for that symbol — they feed the stage-5
    checker, and a violated bound would make its verdicts wrong rather
    than the backends'.
    """

    name: str
    ops: Tuple[MemOpSpec, ...]
    envs: Tuple[Tuple[Tuple[str, int], ...], ...]  # sorted (key, value) pairs
    size: int = 4096
    sym_bounds: Tuple[Tuple[str, Tuple[int, int]], ...] = ()

    def env_dicts(self) -> List[Dict[str, int]]:
        return [dict(pairs) for pairs in self.envs]


@dataclass
class FuzzFailure:
    """One check that has findings on one fuzzed region.

    ``system`` names the backend for the per-backend checks (``golden``
    and ``engines``) and is ``None`` for the per-region ones (``oracle``
    and ``coverage``).  ``fault_seed`` is the campaign's injected stage
    fault, which only the ``oracle`` check reads.
    """

    spec: RegionSpec
    check: str
    system: Optional[str]
    findings: Tuple[str, ...]
    shrunk_from: Optional[int] = None  # op count before shrinking
    fault_seed: Optional[int] = None

    def describe(self) -> str:
        where = f" under {self.system}" if self.system is not None else ""
        parts = [f"{self.check} check failed on {self.spec.name}{where} "
                 f"({len(self.spec.ops)} mem ops, {len(self.spec.envs)} inv); "
                 f"the check wants {CHECKS[self.check].title}"]
        if self.fault_seed is not None:
            parts.append(f"  [injected fault seed {self.fault_seed}]")
        for finding in self.findings[:5]:
            parts.append(f"  {finding}")
        if len(self.findings) > 5:
            parts.append(f"  ... and {len(self.findings) - 5} more")
        if self.shrunk_from is not None:
            parts.append(f"  (shrunk from {self.shrunk_from} ops)")
        return "\n".join(parts)


@dataclass
class FuzzResult:
    """Outcome of a fuzzing campaign: regions generated, runs per check."""

    regions: int = 0
    checks: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate_spec(seed: int, index: int) -> RegionSpec:
    """Region *index* of campaign *seed* (deterministic)."""
    rng = random.Random(seed * 1_000_003 + index)
    n_ops = rng.randint(3, 8)
    ops: List[MemOpSpec] = []
    syms: List[str] = []
    for i in range(n_ops):
        is_store = rng.random() < 0.55
        width = rng.choice(WIDTHS)
        mode = rng.random()
        if mode < 0.3 and ops:
            # Exact collision: clone an earlier op's address so MUST
            # pairs (and FORWARD edges) form; this is what arms the
            # forward-chain patterns.
            prev = rng.choice(ops)
            spec = MemOpSpec(
                is_store=is_store,
                offset=prev.offset,
                width=prev.width,
                sym=prev.sym,
                stride=prev.stride,
            )
        elif mode < 0.55 and (syms or rng.random() < 0.7):
            # Symbolic offset: reuse a sym for dense MAY graphs, or mint
            # a fresh one.
            if syms and rng.random() < 0.6:
                sym = rng.choice(syms)
            else:
                sym = f"s{len(syms)}"
                syms.append(sym)
            spec = MemOpSpec(
                is_store=is_store,
                offset=rng.choice((0, 4, 8, 56, 60)),
                width=width,
                sym=sym,
                stride=rng.choice((1, 2, 4, 8)),
            )
        else:
            spec = MemOpSpec(
                is_store=is_store,
                offset=rng.choice(OFFSET_POOL),
                width=width,
            )
        if is_store and rng.random() < 0.4:
            spec = replace(spec, slow=rng.randint(2, 6))
        if is_store and rng.random() < 0.35:
            # Forward-chain pressure: a store whose value rides on a
            # prior load couples that load's (possibly forwarded)
            # completion into this store's issue time.
            spec = replace(spec, value_from_load=True)
        if rng.random() < 0.2:
            spec = replace(spec, late_addr=True)
        ops.append(spec)
    if not any(o.is_store for o in ops):
        ops[rng.randrange(len(ops))] = replace(ops[0], is_store=True)

    n_inv = rng.choice((1, 1, 2, 3))
    envs = []
    for _ in range(n_inv):
        env = {"x": rng.randrange(1, 1 << 16)}
        for s in syms:
            env[s] = rng.choice(SYM_VALUES)
        envs.append(tuple(sorted(env.items())))
    # Symbol bounds come from an independent stream so the op/env streams
    # above stay byte-identical for historical seeds.  Half the symbols
    # get the tight (and true: SYM_VALUES ⊆ [0, 8]) declared range, which
    # arms the stage-5 enumeration and interval paths.
    rng_bounds = random.Random(seed * 1_000_003 + index + 987_654_321)
    sym_bounds = tuple(
        (s, (0, max(SYM_VALUES))) for s in syms if rng_bounds.random() < 0.5
    )
    return RegionSpec(
        name=f"fuzz-{seed}-{index}",
        ops=ops_tuple(ops),
        envs=tuple(envs),
        sym_bounds=sym_bounds,
    )


def ops_tuple(ops: Sequence[MemOpSpec]) -> Tuple[MemOpSpec, ...]:
    return tuple(ops)


def build_graph(spec: RegionSpec):
    """Materialize a RegionSpec as a fresh DFGraph (no MDEs installed)."""
    obj = MemObject("a", spec.size, base_addr=0x1000)
    b = RegionBuilder(spec.name)
    x = b.input("x")
    # One canonical Sym per name: bounds live on the Sym, and AffineExpr
    # cancellation needs every op sharing a name to share the object.
    bounds = dict(spec.sym_bounds)
    sym_objs: Dict[str, Sym] = {}

    def sym_of(name: str) -> Sym:
        if name not in sym_objs:
            lo, hi = bounds.get(name, (None, None))
            sym_objs[name] = Sym(name, lo=lo, hi=hi)
        return sym_objs[name]

    last_load = None
    for i, m in enumerate(spec.ops):
        if m.sym is not None:
            expr = AffineExpr.of(const=m.offset, syms={sym_of(m.sym): m.stride})
        else:
            expr = AffineExpr.constant(m.offset)
        inputs: List = []
        if m.late_addr and last_load is not None:
            inputs = [b.gep(last_load)]
        if m.is_store:
            base_v = last_load if (m.value_from_load and last_load is not None) else x
            v = b.add(base_v, b.const(i + 1))
            for _ in range(m.slow):
                v = b.fdiv(v, x)
            b.store(obj, expr, value=v, width=m.width, inputs=inputs)
        else:
            last_load = b.load(obj, expr, width=m.width, inputs=inputs)
    return b.build()


# ----------------------------------------------------------------------
# The region set-up every check reads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionSetup:
    """One fuzzed region, set up once for every check and system.

    ``graph`` has no MDEs installed; ``compiled`` is its one
    ``PipelineConfig.full()`` compile, whose edges come back as
    ``compiled.mdes`` and are handed to the backends that enforce them.
    """

    graph: DFGraph
    envs: List[Dict[str, int]]
    placement: Placement
    compiled: PipelineResult
    golden: GoldenResult

    def mdes(self, system: str) -> Tuple[MemoryDependencyEdge, ...]:
        """The edges *system*'s backend enforces: the compile's for the
        systems the sweep compiles for, none for the rest."""
        if common._pipeline_for(system) is None:
            return ()
        return tuple(self.compiled.mdes)


def build_setup(spec: RegionSpec) -> RegionSetup:
    """Build, place, compile and golden-run *spec*, once.

    Placement and the golden run go through ``common``'s names, as the
    sweep's do; nothing is memoized or cached.
    """
    graph = build_graph(spec)
    envs = spec.env_dicts()
    return RegionSetup(
        graph=graph,
        envs=envs,
        placement=common.place_region(graph),
        compiled=AliasPipeline(PipelineConfig.full()).run(graph, apply_mdes=False),
        golden=common.golden_execute(graph, envs),
    )


# ----------------------------------------------------------------------
# Static cross-checks: stage verdicts vs the oracle, MDE sync coverage
# ----------------------------------------------------------------------
def _op_desc(graph, op_id: int) -> str:
    op = graph.op(op_id)
    kind = "ld" if op.is_load else "st"
    name = op.name or f"op{op_id}"
    return f"{kind}#{op_id}({name}) {op.addr!r}"


@dataclass(frozen=True)
class StaticContradiction:
    """A stage-1..4 NO/MUST verdict the separation-logic oracle refutes.

    The oracle is at least as precise as stages 1--4 (same TBAA axiom,
    heaplets subsuming stage-2 provenance, the same enumeration budget),
    so on a sound compiler no contradiction can fire: a stage ``NO``
    with the oracle proving overlap possible, or a stage ``MUST`` with
    the oracle proving disjointness possible, means the *stage* is
    wrong.
    """

    stage: str
    older: int
    younger: int
    stage_label: AliasLabel
    oracle: OracleVerdict
    older_desc: str
    younger_desc: str

    def __str__(self) -> str:
        if self.stage_label is AliasLabel.NO:
            why = "the oracle proves the pair can overlap"
        else:
            why = "the oracle proves the pair can be disjoint"
        return (
            f"{self.stage} labeled {self.stage_label.value.upper()} but {why}: "
            f"{self.older_desc} vs {self.younger_desc} "
            f"[oracle: {self.oracle.label.value.upper()} "
            f"via {self.oracle.decided_by}]"
        )


def _stage_matrices(result) -> List[Tuple[str, AliasMatrix]]:
    """The stage-1..4 matrices of one compilation, in refinement order."""
    out: List[Tuple[str, AliasMatrix]] = [("stage 1", result.stage1)]
    if result.stage2 is not None:
        out.append(("stage 2", result.stage2))
    if result.stage4 is not None:
        out.append(("stage 4", result.stage4))
    return out


def _eligible_fault_pairs(
    verdicts: Dict[Tuple[int, int], OracleVerdict], matrix: AliasMatrix
) -> List[Tuple[int, int]]:
    """MAY pairs the oracle *knows* can overlap.

    Flipping one of these to NO is a guaranteed-detectable unsoundness:
    the injected fault contradicts positive oracle knowledge, never a
    both-sides-uncertain stalemate.
    """
    out: List[Tuple[int, int]] = []
    for pair in matrix.pairs(AliasLabel.MAY):
        v = verdicts[pair]
        if v.label is AliasLabel.MUST or v.can_overlap is True:
            out.append(pair)
    return out


def crosscheck_stages(
    setup: RegionSetup, fault_seed: Optional[int] = None
) -> List[StaticContradiction]:
    """Cross-check every stage-1..4 NO/MUST verdict of the region's
    compile against the oracle.

    With ``fault_seed`` set, one eligible MAY pair of the final
    stage-1..4 matrix is flipped to NO *in a copy, at check time* — the
    executed enforcement is untouched — which must surface as a
    contradiction whenever the region has an eligible pair at all.
    """
    graph, result = setup.graph, setup.compiled
    verdicts = region_verdicts(graph)
    matrices = _stage_matrices(result)
    if fault_seed is not None:
        faulted = result.pre_stage5_labels.copy()
        eligible = _eligible_fault_pairs(verdicts, faulted)
        if eligible:
            older, younger = eligible[fault_seed % len(eligible)]
            faulted.set(older, younger, AliasLabel.NO)
            matrices.append(("injected stage fault", faulted))
    contradictions: List[StaticContradiction] = []
    for stage_name, matrix in matrices:
        for (older, younger), label in matrix:
            if label is AliasLabel.MAY:
                continue  # MAY can never contradict the oracle
            verdict = verdicts[(older, younger)]
            unsound_no = label is AliasLabel.NO and (
                verdict.label is AliasLabel.MUST or verdict.can_overlap is True
            )
            unsound_must = label is AliasLabel.MUST and (
                verdict.label is AliasLabel.NO or verdict.always_overlaps is False
            )
            if unsound_no or unsound_must:
                contradictions.append(
                    StaticContradiction(
                        stage=stage_name,
                        older=older,
                        younger=younger,
                        stage_label=label,
                        oracle=verdict,
                        older_desc=_op_desc(graph, older),
                        younger_desc=_op_desc(graph, younger),
                    )
                )
    return contradictions


# ----------------------------------------------------------------------
# The checks: each maps (setup, system, fault_seed) to its findings
# ----------------------------------------------------------------------
def _golden_findings(
    setup: RegionSetup, system: Optional[str], fault_seed: Optional[int]
) -> List[str]:
    """The traced run against the golden result and the sanitizer."""
    tracer = Tracer()
    mdes = setup.mdes(system)
    _sim, correct = common.simulate_region(
        setup.graph, setup.envs, system, mdes, setup.placement, setup.golden,
        tracer=tracer,
    )
    findings = [] if correct else [
        "golden-model mismatch (wrong load value or final memory image)"
    ]
    report = sanitize_trace(tracer.events, setup.graph, system, mdes=mdes)
    return findings + [str(v) for v in report.violations]


def _sim_bytes(setup: RegionSetup, system: str, engine_cls) -> bytes:
    """The pickled SimResult of an untraced run on *engine_cls*.

    Pickled bytes compare every field (cycles, load values, memory
    image, energy counts, cache stats, ...) at once.
    """
    engine = engine_cls(
        setup.graph, setup.placement, MemoryHierarchy(),
        common._backend_for(system, None), mdes=setup.mdes(system),
    )
    return pickle.dumps(engine.run(setup.envs))


def _engines_findings(
    setup: RegionSetup, system: Optional[str], fault_seed: Optional[int]
) -> List[str]:
    """Fast vs the reference engine, which is the oracle: both are built
    by name, whatever engine a run would pick."""
    if _sim_bytes(setup, system, DataflowEngine) == _sim_bytes(
        setup, system, FastEngine
    ):
        return []
    return ["engine divergence: the reference and fast engines produced "
            "different SimResults"]


def _oracle_findings(
    setup: RegionSetup, system: Optional[str], fault_seed: Optional[int]
) -> List[str]:
    return [str(c) for c in crosscheck_stages(setup, fault_seed=fault_seed)]


def _coverage_findings(
    setup: RegionSetup, system: Optional[str], fault_seed: Optional[int]
) -> List[str]:
    report = check_sync_coverage(setup.graph, tuple(setup.compiled.mdes))
    return [str(g) for g in report.gaps]


@dataclass(frozen=True)
class Check:
    """One contract the campaign checks on every region.

    A per-backend check runs once per (region, backend); the others run
    once per region, with ``system=None``.
    """

    per_backend: bool
    findings: Callable[[RegionSetup, Optional[str], Optional[int]], List[str]]
    title: str


#: Every check, in the order a campaign runs them on each region.
CHECKS: Dict[str, Check] = {
    "golden": Check(
        True, _golden_findings,
        "golden-model values and a clean ordering sanitizer",
    ),
    "engines": Check(
        True, _engines_findings,
        "byte-identical SimResults from the reference and fast engines",
    ),
    "oracle": Check(
        False, _oracle_findings,
        "no stage-1..4 NO/MUST verdict the stage-5 oracle refutes",
    ),
    "coverage": Check(
        False, _coverage_findings,
        "compiled MDEs cover every oracle-required happens-before pair",
    ),
}


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink(spec: RegionSpec, fails: Callable[[RegionSpec], bool]) -> RegionSpec:
    """Greedy delta-debugging to a locally-minimal region on which
    ``fails`` still holds."""
    current = spec
    changed = True
    while changed:
        changed = False
        # Drop whole memory ops.
        for i in range(len(current.ops)):
            if len(current.ops) <= 2:
                break
            cand = replace(
                current, ops=current.ops[:i] + current.ops[i + 1:]
            )
            if fails(cand):
                current, changed = cand, True
                break
        if changed:
            continue
        # Truncate invocations.
        if len(current.envs) > 1:
            cand = replace(current, envs=current.envs[:1])
            if fails(cand):
                current, changed = cand, True
                continue
        # Simplify op attributes: drop slow chains, late addresses,
        # symbolic terms (freezing them at their first env value).
        env0 = dict(current.envs[0]) if current.envs else {}
        for i, m in enumerate(current.ops):
            cands = []
            if m.slow:
                cands.append(replace(m, slow=0))
            if m.late_addr:
                cands.append(replace(m, late_addr=False))
            if m.value_from_load:
                cands.append(replace(m, value_from_load=False))
            if m.sym is not None:
                frozen = m.offset + m.stride * env0.get(m.sym, 0)
                cands.append(replace(m, sym=None, stride=0, offset=frozen))
            for cand_op in cands:
                cand = replace(
                    current,
                    ops=current.ops[:i] + (cand_op,) + current.ops[i + 1:],
                )
                if fails(cand):
                    current, changed = cand, True
                    break
            if changed:
                break
    return current


def _shrunk(failure: FuzzFailure) -> FuzzFailure:
    """*failure* on a locally-minimal region that keeps its check's
    findings; a candidate that crashes instead does not count."""
    def fails(spec: RegionSpec) -> bool:
        try:
            return bool(recheck(failure, spec))
        except Exception:
            return False

    small = shrink(failure.spec, fails)
    return replace(
        failure,
        spec=small,
        findings=tuple(recheck(failure, small)),
        shrunk_from=len(failure.spec.ops),
    )


def recheck(failure: FuzzFailure, spec: RegionSpec) -> List[str]:
    """*failure*'s check, system and fault seed on *spec*, set up anew."""
    return CHECKS[failure.check].findings(
        build_setup(spec), failure.system, failure.fault_seed
    )


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def fuzz(
    count: int,
    seed: int = 0,
    systems: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    max_failures: int = 5,
    fault_seed: Optional[int] = None,
) -> FuzzResult:
    """Run every check of :data:`CHECKS` on *count* generated regions.

    The per-backend checks run under each of *systems* (default: all
    five backends).  Each failure is shrunk.  ``fault_seed`` flips one
    oracle-refutable MAY verdict to NO per region at check time, which
    exercises the oracle check's detection path end to end; regions with
    no refutable pair pass through unchanged.
    """
    systems = list(systems) if systems else list(SYSTEMS)
    for s in systems:
        if s not in SYSTEMS:
            raise ValueError(
                f"unknown system {s!r}; expected one of {list(SYSTEMS)}"
            )
    result = FuzzResult(checks=dict.fromkeys(CHECKS, 0))
    for k in range(count):
        if progress is not None:
            progress(k, count)
        spec = generate_spec(seed, k)
        setup = build_setup(spec)
        result.regions += 1
        for name, check in CHECKS.items():
            for system in systems if check.per_backend else [None]:
                result.checks[name] += 1
                findings = check.findings(setup, system, fault_seed)
                if not findings:
                    continue
                result.failures.append(_shrunk(FuzzFailure(
                    spec, name, system, tuple(findings), fault_seed=fault_seed,
                )))
                if len(result.failures) >= max_failures:
                    return result
    return result
