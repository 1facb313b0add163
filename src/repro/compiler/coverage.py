"""MDE sync-coverage checking (AccelSync-flavored).

The stage-5 oracle (:mod:`repro.compiler.aliasing.stage5`) defines,
independently of the pipeline, which pairs *require* a happens-before
guarantee: every disambiguation-relevant pair the separation-logic
checker cannot prove disjoint.  This module proves that the enforcement
the compiler actually installed **covers** that required set — that
every such pair is ordered by

* guaranteed reachability over data edges + ORDER MDEs
  (:func:`repro.compiler.verify.guaranteed_reachability`, which applies
  the shared publish-semantics rule from :mod:`repro.compiler.ordering`
  — FORWARD and MAY edges never appear in transitive chains), or
* the pair's **own** MDE of any kind: an ORDER edge orders it directly,
  a FORWARD edge delivers the store's value to the load, and a MAY edge
  serializes (NACHOS-SW) or ``==?``-checks (NACHOS) the pair at runtime.

Anything left over is an *uncovered pair* — a statically detected
MDE-insertion bug — reported as a located :class:`CoverageGap` naming
both operations and their symbolic addresses.  This turns the class of
bug PR 3 found dynamically (unsound stage-3 pruning dropped a required
ordering) into one a compile-time check catches; the mutation tests in
``tests/test_coverage_checker.py`` re-introduce exactly that bug plus a
hand-dropped MDE and assert both surface here.

The required set comes from one
:func:`~repro.compiler.aliasing.stage5.region_verdicts` walk per region
rather than one oracle call per pair: pairs on two distinct allocations
are settled by their heaplet keys, pairs on one heaplet whose offsets
share their IV and symbol terms by the constant difference, and only
the rest go through the per-pair
:func:`~repro.compiler.aliasing.stage5.separation_verdict`, once per
key of the region's oracle memo.  That memo lives on the graph and is
shared with stage 5, so a check that follows a full compile of the same
graph finds most keys already settled.  The result is the same list,
pair for pair and verdict for verdict.

Every compile the experiment layer makes is certified here
(:func:`repro.experiments.common.compile_workload`): a gap raises
:class:`CoverageError` before any engine runs or anything is cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from repro.compiler.aliasing.stage5 import OracleVerdict, region_verdicts
from repro.compiler.labels import AliasLabel, PairKind
from repro.compiler.verify import guaranteed_reachability
from repro.ir.graph import DFGraph, MemoryDependencyEdge


@dataclass(frozen=True)
class CoverageGap:
    """A required happens-before pair no installed enforcement covers."""

    older: int
    younger: int
    label: AliasLabel  # the oracle's verdict, not the compiler's
    kind: PairKind
    older_desc: str
    younger_desc: str

    def __str__(self) -> str:
        return (
            f"uncovered {self.label.value.upper()} {self.kind.value} pair: "
            f"{self.older_desc} must happen before {self.younger_desc} "
            "but no data/ORDER path, FORWARD, or MAY check enforces it"
        )


@dataclass
class CoverageReport:
    """Result of one region's sync-coverage check."""

    region: str
    required: int = 0  # pairs the oracle could not prove disjoint
    covered: int = 0
    gaps: List[CoverageGap] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.gaps

    def describe(self) -> str:
        lines = [
            f"sync coverage of region '{self.region}': "
            f"{self.covered}/{self.required} required pairs covered"
        ]
        lines.extend(f"  {gap}" for gap in self.gaps)
        return "\n".join(lines)


class CoverageError(RuntimeError):
    """A compile whose MDEs leave an oracle-required pair uncovered; the
    message is the region's :meth:`CoverageReport.describe`."""


def _op_desc(graph: DFGraph, op_id: int) -> str:
    op = graph.op(op_id)
    kind = "ld" if op.is_load else "st"
    name = op.name or f"op{op_id}"
    return f"{kind}#{op_id}({name}) {op.addr!r}"


#: (older is a store, younger is a store) -> the pair's kind.
_KINDS = {
    (True, True): PairKind.ST_ST,
    (True, False): PairKind.ST_LD,
    (False, True): PairKind.LD_ST,
}


def required_pairs(graph: DFGraph) -> List[Tuple[int, int, PairKind, OracleVerdict]]:
    """Every pair the oracle requires a happens-before guarantee for.

    Enumerated from scratch over all ST-ST / ST-LD / LD-ST pairs (LD-LD
    needs no ordering in single-threaded regions) — deliberately *not*
    from the compiler's label matrix, whose mistakes are exactly what
    the check must survive.  The verdicts come from one
    :func:`~repro.compiler.aliasing.stage5.region_verdicts` walk, and
    each pair's kind from its two ops' store bits.
    """
    is_store = {op.op_id: op.is_store for op in graph.memory_ops}
    return [
        (older, younger, _KINDS[is_store[older], is_store[younger]], verdict)
        for (older, younger), verdict in region_verdicts(graph).items()
        if verdict.label is not AliasLabel.NO
    ]


def check_sync_coverage(
    graph: DFGraph,
    mdes: Optional[Iterable[MemoryDependencyEdge]] = None,
) -> CoverageReport:
    """Prove the MDE set *mdes* covers every oracle-required pair of
    *graph*.

    ``mdes`` is the edge tuple a backend enforces (``None``: the graph's
    own MDEs).  A lost edge is simply a tuple without it, which is how
    the mutation and fuzzer tests inject one.
    """
    edges = graph.mdes if mdes is None else tuple(mdes)
    report = CoverageReport(region=graph.name)
    reach = guaranteed_reachability(graph, edges)
    own_edge: Set[Tuple[int, int]] = {(e.src, e.dst) for e in edges}

    for older, younger, kind, verdict in required_pairs(graph):
        if reach.reaches(older, younger) or (older, younger) in own_edge:
            report.required += 1
            report.covered += 1
            continue
        report.required += 1
        report.gaps.append(
            CoverageGap(
                older=older,
                younger=younger,
                label=verdict.label,
                kind=kind,
                older_desc=_op_desc(graph, older),
                younger_desc=_op_desc(graph, younger),
            )
        )
    return report
