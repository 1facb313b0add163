"""Stage 4 — polyhedral analysis of multidimensional accesses (Section V-E).

Standard alias analyses are confounded by multidimensional array
subscripts such as ``A[Anext][0][0]`` or ``w[col][0]`` — after address
lowering these are affine in *several* induction variables, which the
single-variable SCEV reasoning of stage 1 refuses.  Polly models the
access functions as integer polyhedra over the bounded iteration domain
and decides overlap exactly.

Our analogue: for MAY pairs whose bases are provable (directly or via
stage-2 provenance) and whose offsets are pure affine expressions, decide
overlap over the joint iteration domain with the full multi-variable
comparison (gcd lattice test + bounded enumeration).  Accesses with
opaque symbols — e.g. data-dependent indices — remain MAY, as they do for
Polly.

The paper reports stage 4 perfectly disambiguating the acceleration
regions of equake, lbm, namd, bodytrack, and dwt53.

As in stage 2, the pairs are settled per key: rows of provenance base
uid, offset shape, constant, width and whether the offset has symbols;
a lost base stays MAY, different bases give NO, a symbolic offset is
skipped, one shape is decided by the integer window on ``c_a - c_b``,
and any other pair calls
:func:`~repro.compiler.aliasing.symbolic.compare_offsets` once per pair
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


def refine_stage4(
    graph: DFGraph,
    matrix: AliasMatrix,
    exact_pairs: "Set[Tuple[int, int]] | None" = None,
) -> AliasMatrix:
    """Return a refined copy of *matrix*; only MAY labels may change.

    Every new label is the one ``compare_offsets(single_iv_only=False)``
    gives a symbol-free pair whose provenance bases are known and equal.
    """
    refined = matrix.copy()
    rows: Dict[int, Tuple[Optional[int], int, int, int, bool, AddressExpr]] = {}
    for op, shape, const, width in offset_rows(graph):
        addr = op.addr
        base = addr.interprocedural_base
        rows[op.op_id] = (
            None if base is None else base.uid,
            shape,
            const,
            width,
            addr.offset.has_syms,
            addr,
        )
    no, may, must = AliasLabel.NO, AliasLabel.MAY, AliasLabel.MUST
    labels = refined.labels
    general: Dict[tuple, OffsetRelation] = {}
    for pair, label in matrix.labels.items():
        if label is not may:
            continue
        base_a, shape_a, c_a, w_a, syms_a, a = rows[pair[0]]
        base_b, shape_b, c_b, w_b, syms_b, b = rows[pair[1]]
        if base_a is None or base_b is None:
            continue
        if base_a != base_b:
            # Stage 2 normally catches this; kept for stage-4-only runs.
            labels[pair] = no
        elif syms_a or syms_b:
            continue  # outside the polyhedral model
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
                rel = general[key] = compare_offsets(a, b, single_iv_only=False)
            labels[pair] = rel.label
            if rel.exact and exact_pairs is not None:
                exact_pairs.add(pair)
    return refined
