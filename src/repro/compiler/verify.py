"""Static verification of an enforcement plan (a mini pipecheck).

After MDE insertion, every non-NO pair must be *ordered*: the younger
operation reachable from the older one through edges that guarantee
ordering under the target system.  For NACHOS that is data edges and
ORDER edges, plus the pair's own MAY edge (the runtime check orders it
when it matters) or the pair's own FORWARD edge (the load provably
reads the store's value) — but **not** a chain of unrelated MAY edges,
and **not** a chain through a FORWARD edge, which orders the store's
value delivery but not its publish.

``verify_enforcement`` re-derives the ordering relation from scratch and
returns the violating pairs; the pipeline's own stage 3 should never
produce any (property-tested), and a hand-edited or deserialized MDE set
can be audited with the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.compiler.labels import AliasLabel, AliasMatrix
from repro.compiler.ordering import edge_guarantees_order
from repro.ir.graph import DFGraph, MDEKind, MemoryDependencyEdge


@dataclass(frozen=True)
class OrderingViolation:
    older: int
    younger: int
    label: AliasLabel

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.label.value.upper()} pair ({self.older}, {self.younger}) "
            "is not ordered by the enforcement plan"
        )


@dataclass(frozen=True)
class Reachability:
    """Guaranteed-ordering reachability of one region, as big-int bitsets.

    ``position`` numbers the ops in program order, and bit
    ``position[x]`` of ``ancestors[y]`` is set when a guaranteed-ordering
    path leads from op ``x`` to op ``y``.
    """

    position: Dict[int, int]
    ancestors: Dict[int, int]

    def reaches(self, older: int, younger: int) -> bool:
        """Whether a guaranteed-ordering path leads from *older* to *younger*."""
        return bool(self.ancestors[younger] >> self.position[older] & 1)


def guaranteed_reachability(
    graph: DFGraph, mdes: Optional[Iterable[MemoryDependencyEdge]] = None
) -> Reachability:
    """Reachability over data edges + ordering-guaranteeing MDEs only.

    ``mdes`` is the edge set to follow (``None``: the graph's own MDEs).

    Which installed edge kinds guarantee ordering is decided by
    :func:`repro.compiler.ordering.edge_guarantees_order` (ORDER edges
    only).  FORWARD edges deliberately do NOT contribute: a forward
    delivers the store's *value* as soon as it is computed, typically
    long before the store's *publish* completes in the cache, so a path
    through a FORWARD edge does not order the store's publish before
    downstream accesses.  A FORWARD edge satisfies its own ST->LD pair
    (the load provably reads the store's value), which
    ``verify_enforcement`` accepts directly.

    One forward sweep in program order ORs each predecessor's bit and
    ancestor mask into an op's mask.  Stage 3's pruning index
    (:mod:`repro.compiler.aliasing.stage3`) is deliberately separate
    code, so a reachability bug there cannot also hide the dropped
    ordering from this check.

    Also used by the sync-coverage checker
    (:mod:`repro.compiler.coverage`) to prove the oracle's required
    happens-before pairs are enforced.
    """
    ordered_by: Dict[int, List[int]] = {}
    for edge in graph.mdes if mdes is None else mdes:
        if edge_guarantees_order(edge.kind):
            ordered_by.setdefault(edge.dst, []).append(edge.src)
    position: Dict[int, int] = {}
    ancestors: Dict[int, int] = {}
    for k, op in enumerate(graph.ops):
        oid = op.op_id
        mask = 0
        for src in op.inputs:
            mask |= 1 << position[src] | ancestors[src]
        for src in ordered_by.get(oid, ()):
            mask |= 1 << position[src] | ancestors[src]
        position[oid] = k
        ancestors[oid] = mask
    return Reachability(position=position, ancestors=ancestors)


def verify_enforcement(
    graph: DFGraph, labels: AliasMatrix
) -> List[OrderingViolation]:
    """Return every labeled pair the installed MDEs fail to order.

    * MUST pairs need guaranteed ordering (data / ORDER / FORWARD path).
    * MAY pairs need guaranteed ordering **or** their own direct MAY
      edge (whose runtime check supplies the ordering when addresses
      conflict).
    """
    reach = guaranteed_reachability(graph)
    direct_may: Set[Tuple[int, int]] = {
        (e.src, e.dst) for e in graph.mdes if e.kind is MDEKind.MAY
    }
    direct_forward: Set[Tuple[int, int]] = {
        (e.src, e.dst) for e in graph.mdes if e.kind is MDEKind.FORWARD
    }
    violations: List[OrderingViolation] = []
    for (older, younger), label in labels:
        if label is AliasLabel.NO:
            continue
        if reach.reaches(older, younger):
            continue
        if label is AliasLabel.MAY and (older, younger) in direct_may:
            continue
        if label is AliasLabel.MUST and (older, younger) in direct_forward:
            continue
        violations.append(OrderingViolation(older, younger, label))
    return violations
