"""Stage 3 — redundancy elimination via dataflow reachability (Section V-D).

A labeled alias relation need not be *enforced* when the dataflow graph
already orders the two operations: if the younger op is reachable from the
older one over data edges (or over already-retained MDEs), the transitive
dependence subsumes the memory ordering.  Removing these redundant
relations is what keeps NACHOS's MDE energy low (the paper reports stage 3
removing 40--84%, ~68% on average, and 93% of potential MDEs overall).

Two paper-mandated details:

* ST->LD MUST relations are retained even when redundant, so the value can
  be *forwarded* rather than re-loaded ("We do not eliminate St-Ld aliases
  even if they are redundant to ensure forwarding").
* MUST relations are enforced before MAY relations: MUST pairs are
  processed first, so a MAY pair whose ordering is implied by retained
  MUST edges is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.compiler.labels import AliasLabel, AliasMatrix, PairKind, pair_kind
from repro.compiler.ordering import relation_guarantees_order
from repro.ir.graph import DFGraph


@dataclass(frozen=True)
class RetainedRelation:
    """An alias relation that survived stage 3 and must be enforced."""

    older: int
    younger: int
    label: AliasLabel
    kind: PairKind


@dataclass
class EnforcementPlan:
    """Output of stage 3: which relations the hardware must see."""

    retained: List[RetainedRelation] = field(default_factory=list)
    removed_must: int = 0
    removed_may: int = 0

    @property
    def removed(self) -> int:
        return self.removed_must + self.removed_may

    @property
    def retained_must(self) -> List[RetainedRelation]:
        return [r for r in self.retained if r.label is AliasLabel.MUST]

    @property
    def retained_may(self) -> List[RetainedRelation]:
        return [r for r in self.retained if r.label is AliasLabel.MAY]


class _ReachIndex:
    """DAG reachability over data edges + retained MDEs, as bitsets.

    Ops are in topological program order, so one backward sweep computes
    every op's reachable-set as a big-int bitmask; queries are O(1) bit
    tests.  A retained edge ``src -> dst`` then updates the masks in
    place: ``dst`` comes after ``src``, so what ``dst`` reaches does not
    change, and exactly ``src`` and the ops whose mask holds ``src`` gain
    ``dst`` and everything ``dst`` reaches.

    The static checker (:func:`repro.compiler.verify.guaranteed_reachability`)
    computes its reachability with separate code on purpose: a bug here
    that let this stage prune a needed relation must not also make the
    checker approve the pruned plan.
    """

    def __init__(self, graph: DFGraph) -> None:
        self._order = [op.op_id for op in graph.ops]
        self._index = {oid: k for k, oid in enumerate(self._order)}
        self._succ: Dict[int, List[int]] = {oid: [] for oid in self._order}
        for op in graph.ops:
            for src in op.inputs:
                self._succ[src].append(op.op_id)
        self._reach: Dict[int, int] = {}
        self._sweep()

    def _sweep(self) -> None:
        reach: Dict[int, int] = {}
        for oid in reversed(self._order):
            mask = 0
            for nxt in self._succ[oid]:
                mask |= (1 << self._index[nxt]) | reach[nxt]
            reach[oid] = mask
        self._reach = reach

    def add_edge(self, src: int, dst: int) -> None:
        self._succ[src].append(dst)
        reach = self._reach
        gain = (1 << self._index[dst]) | reach[dst]
        if reach[src] | gain == reach[src]:
            return  # already reachable: every mask holding src holds gain
        src_pos = self._index[src]
        reach[src] |= gain
        for oid in self._order[:src_pos]:
            mask = reach[oid]
            if mask >> src_pos & 1:
                reach[oid] = mask | gain

    def reachable(self, src: int, dst: int) -> bool:
        if src == dst:
            return True
        return bool(self._reach[src] >> self._index[dst] & 1)


def prune_stage3(
    graph: DFGraph,
    matrix: AliasMatrix,
    keep_st_ld_forwarding: bool = True,
    exact_pairs: Optional[Set[Tuple[int, int]]] = None,
) -> EnforcementPlan:
    """Drop relations subsumed by transitive dependencies."""
    plan = EnforcementPlan()
    reach = _ReachIndex(graph)
    ops = {op.op_id: op for op in graph.memory_ops}
    exact = exact_pairs or set()

    def process(pairs: Sequence[Tuple[int, int]], label: AliasLabel) -> None:
        for older, younger in pairs:
            kind = pair_kind(ops[older], ops[younger])
            assert kind is not None
            is_forwarding = (
                keep_st_ld_forwarding
                and label is AliasLabel.MUST
                and kind is PairKind.ST_LD
            )
            if not is_forwarding and reach.reachable(older, younger):
                if label is AliasLabel.MUST:
                    plan.removed_must += 1
                else:
                    plan.removed_may += 1
                continue
            plan.retained.append(RetainedRelation(older, younger, label, kind))
            # Only *guaranteed* orderings may justify pruning other
            # relations: retained MAY edges order their endpoints only on
            # a runtime conflict, and exact-match ST->LD relations lower
            # to FORWARD edges, which deliver the store's value long
            # before its cache publish — pruning through either would let
            # chains race.  The rule lives in repro.compiler.ordering so
            # the verifier and the sync-coverage checker apply the exact
            # same one (PR 3's unsoundness came from duplicating it).
            if relation_guarantees_order(label, kind, older, younger, exact):
                reach.add_edge(older, younger)

    def by_span(label: AliasLabel) -> List[Tuple[int, int]]:
        # Short-range pairs first: retaining MUST(1,2) and MUST(2,3)
        # before examining MUST(1,3) lets transitivity prune the latter.
        return sorted(
            (p for p, l in matrix.labels.items() if l is label),
            key=lambda p: (p[1] - p[0], p),
        )

    # MUST relations are enforced prior to MAY relations (Section V-D).
    process(by_span(AliasLabel.MUST), AliasLabel.MUST)
    process(by_span(AliasLabel.MAY), AliasLabel.MAY)
    return plan


def retain_all(graph: DFGraph, matrix: AliasMatrix) -> EnforcementPlan:
    """The no-stage-3 fallback: enforce every MUST and MAY relation."""
    plan = EnforcementPlan()
    ops = {op.op_id: op for op in graph.memory_ops}
    for label in (AliasLabel.MUST, AliasLabel.MAY):
        for older, younger in matrix.pairs(label):
            kind = pair_kind(ops[older], ops[younger])
            assert kind is not None
            plan.retained.append(RetainedRelation(older, younger, label, kind))
    return plan
