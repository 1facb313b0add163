"""Dynamic ordering sanitizer over simulator trace streams.

Where :func:`repro.compiler.verify.verify_enforcement` audits the
*static* enforcement plan (are all labeled pairs ordered by the MDEs?),
this module audits a *run*: it replays the tracer's event stream
(:mod:`repro.obs.tracer`) against the region graph and checks the
happens-before invariants every backend promises (see
``docs/simulation.md`` for the contract, ``docs/verification.md`` for
the rule catalogue):

``access-count``
    Every memory op performs exactly one access per invocation — one
    ``MEM_LOAD``/``MEM_STORE`` span or one ``MEM_FORWARD`` instant.
``conflict-separation``
    Conflicting accesses (byte ranges overlap, not both loads) complete
    in program order with strictly unequal timestamps.  Forward-completed
    loads are exempt: a forward decouples the load's value from cache
    timing, and the ``forward-source`` rule governs it instead.
``edge-wait``
    Every ORDER edge — and every MAY edge that the backend serializes
    (NACHOS-SW always; NACHOS when the ``==?`` verdict was *conflict* or
    the edge was resolved by completion) — delays the younger op's start
    to the older op's completion plus the order-signal latency, unless
    the younger op was satisfied by a forward.
``forward-edge-used``
    A compile-time FORWARD edge completes its load by forwarding.
``comparator-verdict``
    Every ``==?`` verdict equals the ground-truth byte-range overlap.
``forward-source``
    Every forward (static, runtime, or LSQ) sources the youngest
    exactly-matching older store: the store's byte range equals the
    load's, and no store between them overlaps the load.
``inorder-issue``
    OPT-LSQ enqueues in program order at non-decreasing cycles.
``replay-observes-stores`` / ``spurious-violation``
    Every SPEC-LSQ violation is followed by a replay completing after
    every violated store's completion — and names at least one store
    that actually completed after the speculative read (a violation
    whose every store had already published is spurious).

The sanitizer is deliberately redundant with the golden-model value
check: hash-token values catch most ordering bugs end to end, but a
backend can be *lucky* (an unordered pair whose racy outcome happens to
match program order on this seed).  The sanitizer checks the timing
obligation itself, so near-misses fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.graph import DFGraph, MDEKind, MemoryDependencyEdge
from repro.obs import tracer as obs
from repro.sim.backends.base import ranges_exact, ranges_overlap
from repro.sim.config import EngineConfig

#: Backends whose MDE edges the ``edge-wait`` family applies to.
MDE_BACKENDS = frozenset({"nachos-sw", "nachos"})

# Rule identifiers -----------------------------------------------------
ACCESS_COUNT = "access-count"
CONFLICT_SEPARATION = "conflict-separation"
EDGE_WAIT = "edge-wait"
FORWARD_EDGE_USED = "forward-edge-used"
COMPARATOR_VERDICT = "comparator-verdict"
FORWARD_SOURCE = "forward-source"
INORDER_ISSUE = "inorder-issue"
REPLAY_OBSERVES = "replay-observes-stores"
SPURIOUS_VIOLATION = "spurious-violation"


@dataclass(frozen=True)
class SanitizerViolation:
    """One broken invariant, located to an invocation and op(s)."""

    rule: str
    backend: str
    region: str
    inv: int
    ops: Tuple[int, ...]
    message: str

    def __str__(self) -> str:
        where = ",".join(str(o) for o in self.ops)
        return (
            f"[{self.rule}] {self.backend}/{self.region} "
            f"inv={self.inv} ops=({where}): {self.message}"
        )


@dataclass
class SanitizerReport:
    """Outcome of sanitizing one traced run."""

    backend: str
    region: str
    invocations: int = 0
    checks: Dict[str, int] = field(default_factory=dict)
    violations: List[SanitizerViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self, limit: int = 10) -> str:
        head = (
            f"sanitizer {self.backend}/{self.region}: "
            f"{sum(self.checks.values())} checks over "
            f"{self.invocations} invocation(s) — "
        )
        if self.ok:
            return head + "clean"
        lines = [head + f"{len(self.violations)} violation(s)"]
        for v in self.violations[:limit]:
            lines.append(f"  {v}")
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class _Access:
    """One memory access reconstructed from the trace."""

    op: int
    kind: str  # "load" | "store" | "forward"
    start: int
    complete: int
    addr: int
    width: int
    src: int = -1  # forwarding store (forward accesses only)

    @property
    def range(self) -> Tuple[int, int]:
        return (self.addr, self.width)


def sanitize_trace(
    events: Iterable[obs.TraceEvent],
    graph: DFGraph,
    backend: str,
    region: Optional[str] = None,
    mdes: Optional[Iterable[MemoryDependencyEdge]] = None,
) -> SanitizerReport:
    """Check *events* (one traced run) against the ordering contract.

    ``backend`` is the backend's ``name`` attribute (``opt-lsq``,
    ``spec-lsq``, ``serial-mem``, ``nachos-sw``, ``nachos``); it selects
    which rule families apply.  ``graph`` is the graph the run executed
    and ``mdes`` the edges its backend enforced — as for the engine,
    ``None`` means the graph's own MDEs.  Every traced run uses the
    default :class:`~repro.sim.config.EngineConfig`, whose
    ``order_signal_latency`` the edge-wait rule assumes.
    """
    order_signal_latency = EngineConfig().order_signal_latency
    edges = graph.mdes if mdes is None else tuple(mdes)
    report = SanitizerReport(backend=backend, region=region or graph.name)
    mem_ops = {op.op_id: op for op in graph.memory_ops}
    rank = {oid: k for k, oid in enumerate(sorted(mem_ops))}
    stores = [oid for oid in sorted(mem_ops) if mem_ops[oid].is_store]

    by_inv: Dict[int, List[obs.TraceEvent]] = {}
    for ev in events:
        by_inv.setdefault(ev.inv, []).append(ev)
    by_inv.pop(-1, None)

    def fail(rule: str, inv: int, ops: Tuple[int, ...], message: str) -> None:
        report.violations.append(
            SanitizerViolation(rule, backend, report.region, inv, ops, message)
        )

    def check(rule: str) -> None:
        report.checks[rule] = report.checks.get(rule, 0) + 1

    for inv in sorted(by_inv):
        report.invocations += 1
        evs = by_inv[inv]
        accesses: Dict[int, List[_Access]] = {}
        verdicts: Dict[Tuple[int, int], bool] = {}
        enqueues: List[Tuple[int, int]] = []  # (t, op) in emission order
        speculations: Dict[int, int] = {}
        spec_violations: Dict[int, Tuple[int, List[int]]] = {}
        replays: Dict[int, int] = {}

        for ev in evs:
            if ev.kind == obs.MEM_LOAD:
                accesses.setdefault(ev.op, []).append(
                    _Access(
                        ev.op, "load", ev.t, ev.t + ev.dur,
                        ev.args["addr"], ev.args["width"],
                    )
                )
            elif ev.kind == obs.MEM_STORE:
                accesses.setdefault(ev.op, []).append(
                    _Access(
                        ev.op, "store", ev.t, ev.t + ev.dur,
                        ev.args["addr"], ev.args["width"],
                    )
                )
            elif ev.kind == obs.MEM_FORWARD:
                accesses.setdefault(ev.op, []).append(
                    _Access(
                        ev.op, "forward", ev.t, ev.t,
                        ev.args["addr"], ev.args["width"], ev.args["src"],
                    )
                )
            elif ev.kind == obs.COMPARATOR_CHECK:
                verdicts[(ev.args["src"], ev.op)] = bool(ev.args["conflict"])
            elif ev.kind == obs.LSQ_ENQUEUE:
                enqueues.append((ev.t, ev.op))
            elif ev.kind == obs.SPECULATION:
                speculations[ev.op] = ev.t
            elif ev.kind == obs.VIOLATION:
                spec_violations[ev.op] = (ev.t, list(ev.args["stores"]))
            elif ev.kind == obs.REPLAY:
                replays[ev.op] = ev.t

        # -- access-count ---------------------------------------------
        final: Dict[int, _Access] = {}
        for oid in mem_ops:
            check(ACCESS_COUNT)
            got = accesses.get(oid, [])
            if len(got) != 1:
                fail(
                    ACCESS_COUNT, inv, (oid,),
                    f"expected exactly one access, saw {len(got)}",
                )
            if got:
                final[oid] = got[-1]

        # -- conflict-separation --------------------------------------
        oids = sorted(final)
        for i, a in enumerate(oids):
            for b in oids[i + 1:]:
                older, younger = final[a], final[b]
                if older.kind == "forward" or younger.kind == "forward":
                    continue
                if older.kind == "load" and younger.kind == "load":
                    continue
                if not ranges_overlap(older.range, younger.range):
                    continue
                check(CONFLICT_SEPARATION)
                if not older.complete < younger.complete:
                    fail(
                        CONFLICT_SEPARATION, inv, (a, b),
                        f"conflicting pair completed out of order "
                        f"({older.complete} !< {younger.complete}) at "
                        f"ranges {older.range} / {younger.range}",
                    )

        # -- forward-source -------------------------------------------
        for oid, acc in final.items():
            if acc.kind != "forward":
                continue
            check(FORWARD_SOURCE)
            src = final.get(acc.src)
            if acc.src not in mem_ops or not mem_ops[acc.src].is_store:
                fail(
                    FORWARD_SOURCE, inv, (oid, acc.src),
                    "forward source is not a store of this region",
                )
                continue
            if rank[acc.src] >= rank[oid]:
                fail(
                    FORWARD_SOURCE, inv, (oid, acc.src),
                    "forward source is not older than the load",
                )
                continue
            if src is not None and not ranges_exact(src.range, acc.range):
                fail(
                    FORWARD_SOURCE, inv, (oid, acc.src),
                    f"forwarded range {acc.range} does not exactly match "
                    f"the source store's range {src.range}",
                )
            for s2 in stores:
                if not rank[acc.src] < rank[s2] < rank[oid]:
                    continue
                other = final.get(s2)
                if other is not None and ranges_overlap(other.range, acc.range):
                    fail(
                        FORWARD_SOURCE, inv, (oid, acc.src, s2),
                        f"store {s2} between source and load overlaps the "
                        "load — the forward is not from the youngest match",
                    )

        # -- MDE rules (NACHOS / NACHOS-SW) ----------------------------
        if backend in MDE_BACKENDS:
            hardware = backend == "nachos"
            for edge in edges:
                src, dst = final.get(edge.src), final.get(edge.dst)
                if src is None or dst is None:
                    continue  # access-count already failed
                if edge.kind is MDEKind.FORWARD:
                    check(FORWARD_EDGE_USED)
                    if dst.kind != "forward" or dst.src != edge.src:
                        fail(
                            FORWARD_EDGE_USED, inv, (edge.src, edge.dst),
                            "FORWARD edge's load did not complete by "
                            "forwarding from its source store",
                        )
                    continue
                if edge.kind is MDEKind.MAY and hardware:
                    verdict = verdicts.get((edge.src, edge.dst))
                    if verdict is not None:
                        check(COMPARATOR_VERDICT)
                        truth = ranges_overlap(src.range, dst.range)
                        if verdict != truth:
                            fail(
                                COMPARATOR_VERDICT, inv, (edge.src, edge.dst),
                                f"==? verdict {verdict} but runtime ranges "
                                f"{src.range} / {dst.range} overlap={truth}",
                            )
                    if verdict is False:
                        continue  # proven non-conflicting: no wait owed
                # ORDER edge, serialized MAY (NACHOS-SW), or MAY whose
                # verdict was conflict / never computed: the younger op
                # must wait for completion + signal — unless a forward
                # satisfied it (forward-source governs the value).
                if dst.kind == "forward":
                    continue
                check(EDGE_WAIT)
                if dst.start < src.complete + order_signal_latency:
                    fail(
                        EDGE_WAIT, inv, (edge.src, edge.dst),
                        f"{edge.kind.name} edge not honored: younger op "
                        f"started at {dst.start} < older completion "
                        f"{src.complete} + {order_signal_latency}",
                    )

        # -- inorder-issue (OPT-LSQ) -----------------------------------
        if backend == "opt-lsq":
            prev_rank, prev_t = -1, None
            for t, oid in enqueues:
                check(INORDER_ISSUE)
                if rank.get(oid, -1) <= prev_rank:
                    fail(
                        INORDER_ISSUE, inv, (oid,),
                        "LSQ enqueue out of program order",
                    )
                if prev_t is not None and t < prev_t:
                    fail(
                        INORDER_ISSUE, inv, (oid,),
                        f"LSQ enqueue cycle went backwards ({prev_t} -> {t})",
                    )
                prev_rank, prev_t = rank.get(oid, -1), t

        # -- spec-lsq speculation rules --------------------------------
        if backend == "spec-lsq":
            for oid, (t_v, late) in spec_violations.items():
                check(REPLAY_OBSERVES)
                acc = final.get(oid)
                if oid not in replays:
                    fail(
                        REPLAY_OBSERVES, inv, (oid,),
                        "violation without a subsequent replay",
                    )
                elif acc is not None and acc.kind == "load":
                    for s in late:
                        sacc = final.get(s)
                        if sacc is not None and acc.complete <= sacc.complete:
                            fail(
                                REPLAY_OBSERVES, inv, (oid, s),
                                f"replayed read completed at {acc.complete} "
                                f"<= violated store's completion "
                                f"{sacc.complete}",
                            )
                t_spec = speculations.get(oid)
                if t_spec is not None:
                    check(SPURIOUS_VIOLATION)
                    already = [
                        s
                        for s in late
                        if final.get(s) is not None
                        and final[s].complete <= t_spec
                    ]
                    if already:
                        fail(
                            SPURIOUS_VIOLATION, inv, tuple([oid] + already),
                            "violation names store(s) that had already "
                            f"published at the speculative read ({t_spec})",
                        )

    return report
