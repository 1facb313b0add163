"""Stage 1 — intra-region alias analysis (LLVM Basic/TBAA/SCEV analogue).

Assigns the initial MAY/MUST/NO label to every disambiguation-relevant
pair.  Stage 1 sees only information available *inside* the region:

* **Base objects** (BasicAA): accesses to two distinct named allocations
  never alias; opaque pointer parameters cannot be resolved.
* **Types** (TBAA): accesses with different type tags are assumed
  disjoint, as under ``-fstrict-aliasing``.  The axiom is always on:
  the stage-5 oracle and the coverage check assume it too, so the three
  agree by construction.
* **Scalar evolution** (SCEV): offsets affine in *one* induction variable
  are compared exactly over the iteration domain.  Multi-variable
  subscripts — the multidimensional-array patterns of Section V-E — are
  beyond stage 1 and stay MAY, exactly as the paper observes for
  equake/lbm/namd/bodytrack/dwt53.

Most pairs are decided by keys, not by an offset difference: the memory
ops are walked once into rows, and a pair is settled per bucket when its
TBAA tags differ, its syntactic bases differ (the base object's or the
pointer parameter's own uid; provenance is stage 2's business), or its
offsets share their IV and symbol terms, so that the difference is the
constant ``c_a - c_b``.  Only the remaining same-base pairs go through
:func:`_classify` and :func:`~repro.compiler.aliasing.symbolic.compare_offsets`,
the per-pair rule these buckets reproduce.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.compiler.aliasing.symbolic import (
    OffsetRelation,
    compare_offsets,
    offset_rows,
)
from repro.compiler.labels import AliasLabel, AliasMatrix
from repro.ir.address import AddressExpr, MemObject, PointerParam
from repro.ir.graph import DFGraph


def _tbaa_disjoint(a: AddressExpr, b: AddressExpr) -> bool:
    return (
        a.type_tag is not None
        and b.type_tag is not None
        and a.type_tag != b.type_tag
    )


def _classify(a: AddressExpr, b: AddressExpr) -> OffsetRelation:
    if _tbaa_disjoint(a, b):
        return OffsetRelation(AliasLabel.NO)

    base_a, base_b = a.base, b.base
    both_objects = isinstance(base_a, MemObject) and isinstance(base_b, MemObject)
    if both_objects:
        if base_a.uid != base_b.uid:
            return OffsetRelation(AliasLabel.NO)
        return compare_offsets(a, b, single_iv_only=True)

    same_param = (
        isinstance(base_a, PointerParam)
        and isinstance(base_b, PointerParam)
        and base_a.uid == base_b.uid
    )
    if same_param:
        # The unknown base cancels; offsets decide.
        return compare_offsets(a, b, single_iv_only=True)

    # At least one opaque pointer with a different (or unknown) base:
    # stage 1 cannot see across the call boundary.
    return OffsetRelation(AliasLabel.MAY)


def analyze_stage1(
    graph: DFGraph,
    exact_pairs: "Set[Tuple[int, int]] | None" = None,
) -> AliasMatrix:
    """Label every pair of *graph*; optionally record exact-match pairs.

    ``exact_pairs`` (if given) collects pairs proven to be the identical
    address every invocation — the candidates for ST->LD forwarding.

    Every label is the one :func:`_classify` gives the pair, settled per
    bucket where the rows' keys decide it (see the module docstring);
    the other same-base pairs go through :func:`_classify` once per pair
    of offset shapes, constant difference and widths.  The labels are
    built in (older, younger) program order, the alias universe's.
    """
    base_ids: Dict[Tuple[bool, int], int] = {}
    rows = []
    for op, shape, const, width in offset_rows(graph):
        addr = op.addr
        is_object = isinstance(addr.base, MemObject)
        rows.append((
            op.op_id,
            op.is_store,
            base_ids.setdefault((is_object, addr.base.uid), len(base_ids)),
            is_object,
            addr.type_tag,
            shape,
            const,
            width,
            addr,
        ))
    no, may, must = AliasLabel.NO, AliasLabel.MAY, AliasLabel.MUST
    # Past the tag and base checks a relation depends only on the offset
    # difference (the two shapes and ``c_a - c_b``) and the widths.
    general: Dict[tuple, OffsetRelation] = {}
    labels: Dict[Tuple[int, int], AliasLabel] = {}
    for i, (id_a, st_a, base_a, obj_a, tag_a, shape_a, c_a, w_a, a) in enumerate(rows):
        for id_b, st_b, base_b, obj_b, tag_b, shape_b, c_b, w_b, b in rows[i + 1 :]:
            if not (st_a or st_b):
                continue  # LD-LD is not in the universe
            if tag_a is not None and tag_b is not None and tag_a != tag_b:
                label = no
            elif base_a != base_b:
                # Two named allocations never alias; an opaque pointer
                # with another base stays MAY.
                label = no if obj_a and obj_b else may
            elif shape_a == shape_b:
                d = c_a - c_b
                if -w_a < d < w_b:
                    label = must
                    if d == 0 and w_a == w_b and exact_pairs is not None:
                        exact_pairs.add((id_a, id_b))
                else:
                    label = no
            else:
                key = (shape_a, shape_b, c_a - c_b, w_a, w_b)
                rel = general.get(key)
                if rel is None:
                    rel = general[key] = _classify(a, b)
                label = rel.label
                if rel.exact and exact_pairs is not None:
                    exact_pairs.add((id_a, id_b))
            labels[(id_a, id_b)] = label
    return AliasMatrix(labels=labels)
