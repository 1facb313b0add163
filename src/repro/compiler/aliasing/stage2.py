"""Stage 2 — inter-procedural MAY -> NO refinement (paper Section V-C).

LLVM 3.8's standard alias analyses stop at function boundaries.  Many MAY
labels from stage 1 involve pointers that entered the region as arguments
but were derived from global or local variables in the caller.  Stage 2
traces the provenance of each opaque pointer back across the call
boundary; when two operations trace to *different* source objects the
pair becomes NO, and when they trace to the *same* object the offsets are
re-compared with the base now known.

Provenance is tractable here for the same reasons as in the paper: the
accelerated path is invoked from a single call site and the workloads use
no function pointers.  Pointers whose chain is lost (stored to memory and
reloaded) keep ``provenance=None`` and remain MAY.

The pairs are settled per key, not per pair.  The memory ops are walked
once into rows — provenance base uid (``None`` when lost), offset shape,
constant and width (:func:`~repro.compiler.aliasing.symbolic.offset_rows`)
— and a MAY pair whose base is lost stays MAY, two different bases give
NO, and two offsets of one shape are decided by the integer window on
``c_a - c_b``.  Only the remaining pairs call
:func:`~repro.compiler.aliasing.symbolic.compare_offsets`, once per pair
of shapes, constant difference and widths.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.compiler.aliasing.symbolic import (
    OffsetRelation,
    compare_offsets,
    offset_rows,
)
from repro.compiler.labels import AliasLabel, AliasMatrix
from repro.ir.address import AddressExpr
from repro.ir.graph import DFGraph


def refine_stage2(
    graph: DFGraph,
    matrix: AliasMatrix,
    exact_pairs: "Set[Tuple[int, int]] | None" = None,
) -> AliasMatrix:
    """Return a refined copy of *matrix*; only MAY labels may change.

    Every new label is the one ``compare_offsets(single_iv_only=True)``
    gives the pair once both provenance bases are known and equal.
    """
    refined = matrix.copy()
    rows: Dict[int, Tuple[Optional[int], int, int, int, AddressExpr]] = {}
    for op, shape, const, width in offset_rows(graph):
        base = op.addr.interprocedural_base
        rows[op.op_id] = (
            None if base is None else base.uid, shape, const, width, op.addr
        )
    no, may, must = AliasLabel.NO, AliasLabel.MAY, AliasLabel.MUST
    labels = refined.labels
    general: Dict[tuple, OffsetRelation] = {}
    for pair, label in matrix.labels.items():
        if label is not may:
            continue
        base_a, shape_a, c_a, w_a, a = rows[pair[0]]
        base_b, shape_b, c_b, w_b, b = rows[pair[1]]
        if base_a is None or base_b is None:
            continue  # provenance chain lost; stays MAY
        if base_a != base_b:
            labels[pair] = no
        elif shape_a == shape_b:
            d = c_a - c_b
            if -w_a < d < w_b:
                labels[pair] = must
                if d == 0 and w_a == w_b and exact_pairs is not None:
                    exact_pairs.add(pair)
            else:
                labels[pair] = no
        else:
            key = (shape_a, shape_b, c_a - c_b, w_a, w_b)
            rel = general.get(key)
            if rel is None:
                rel = general[key] = compare_offsets(a, b, single_iv_only=True)
            labels[pair] = rel.label
            if rel.exact and exact_pairs is not None:
                exact_pairs.add(pair)
    return refined
