"""Oracle labeling: the limit of *any* static alias analysis.

Builds the alias matrix a hypothetically perfect compiler would produce
for a given trace: a pair is ``NO`` when its addresses never overlap in
any invocation of the trace, ``MUST`` when they overlap in at least one
(a static schedule must order the pair for the whole run — it cannot
order it "only on Tuesdays").

This is the software-only performance ceiling: NACHOS-SW with oracle
labels.  The gap between it and NACHOS measures what *per-invocation*
hardware checking buys beyond anything a compiler could ever prove —
nonzero exactly on data-dependent access patterns, where the same pair
conflicts in some invocations and not others.

The labels are trace-specific by construction; running them against a
different trace would be unsound.  Use them only for limit studies.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Set, Tuple

from repro.compiler.aliasing.stage3 import prune_stage3
from repro.compiler.labels import AliasLabel, AliasMatrix
from repro.compiler.mde import insert_mdes
from repro.ir.graph import DFGraph, MemoryDependencyEdge


def oracle_matrix(
    graph: DFGraph, envs: Iterable[Mapping[str, int]]
) -> Tuple[AliasMatrix, Set[Tuple[int, int]]]:
    """Ground-truth labels for *graph* over *envs*.

    Returns the matrix plus the pairs that are an exact (same address,
    same width) match in **every** invocation — the only pairs a static
    schedule could safely forward.
    """
    matrix = AliasMatrix.universe(graph, default=AliasLabel.NO)
    ops = {op.op_id: op for op in graph.memory_ops}
    pairs = matrix.pairs()
    always_exact = set(pairs)
    ever_overlap: Set[Tuple[int, int]] = set()

    for env in envs:
        concrete = {
            oid: (op.addr.evaluate(env), op.addr.width) for oid, op in ops.items()
        }
        for older, younger in pairs:
            a, wa = concrete[older]
            b, wb = concrete[younger]
            if a < b + wb and b < a + wa:
                ever_overlap.add((older, younger))
            if not (a == b and wa == wb):
                always_exact.discard((older, younger))

    for pair in pairs:
        matrix.labels[pair] = (
            AliasLabel.MUST if pair in ever_overlap else AliasLabel.NO
        )
    return matrix, always_exact & ever_overlap


def compile_with_oracle(
    graph: DFGraph, envs: Iterable[Mapping[str, int]]
) -> Tuple[MemoryDependencyEdge, ...]:
    """The oracle compiler's MDEs for *graph*; *graph* is left as it is."""
    envs = list(envs)
    matrix, exact = oracle_matrix(graph, envs)
    plan = prune_stage3(graph, matrix)
    return tuple(insert_mdes(graph, plan, exact, matrix, apply=False))
