"""Symbolic overlap reasoning shared by stages 1, 2, and 4.

Given two accesses whose *bases are known to be identical*, decide whether
their byte ranges can / must overlap.  With offsets ``oa`` and ``ob`` and
widths ``wa`` and ``wb``, the ranges ``[oa, oa+wa)`` and ``[ob, ob+wb)``
intersect exactly when ``oa < ob + wb`` and ``ob < oa + wa``, i.e.::

    -wa < oa - ob < wb

so the whole question reduces to the value set of the affine difference
``d = oa - ob`` over the iteration domain:

* ``d`` contains opaque symbols               -> MAY (runtime-only)
* value set disjoint from the overlap window  -> NO
* value set inside the window for *every*     -> MUST
  point of the domain
* otherwise                                   -> MAY

Stage 1 restricts itself to differences affine in at most one induction
variable (LLVM SCEV's comfort zone); stage 4 (polyhedral) handles the
multi-variable case with a gcd test plus bounded enumeration.

The three stages read a region's memory ops through one walk,
:func:`offset_rows`, which numbers each offset's *shape* (its IV and
symbol terms).  Two offsets of one shape differ by the constant
``c_a - c_b``, so such a pair is the integer window test above with no
``AffineExpr`` built; any other relation is fixed by the two shapes,
``c_a - c_b`` and the widths, so the stages call :func:`compare_offsets`
once per such key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.labels import AliasLabel
from repro.ir.address import AddressExpr, AffineExpr
from repro.ir.graph import DFGraph
from repro.ir.ops import Operation

#: Do not enumerate joint iteration domains larger than this; fall back to
#: the conservative (gcd + interval) answer instead.
DEFAULT_ENUMERATION_LIMIT = 1 << 16


@dataclass(frozen=True)
class OffsetRelation:
    """Result of an overlap query between two same-base accesses.

    ``exact`` is True only when the two accesses are provably the *same*
    address with the same width in every invocation — the precondition for
    turning a ST->LD MUST pair into a FORWARD edge rather than an ORDER
    edge (partial overlaps cannot forward).
    """

    label: AliasLabel
    exact: bool = False


def _window(wa: int, wb: int) -> Tuple[int, int]:
    """Inclusive integer window of differences that mean 'overlap'."""
    return (-wa + 1, wb - 1)


def _interval_intersects(lo: int, hi: int, wlo: int, whi: int) -> bool:
    return max(lo, wlo) <= min(hi, whi)


def _gcd_hits_window(diff: AffineExpr, wlo: int, whi: int) -> bool:
    """Can ``diff`` land in [wlo, whi] according to the gcd lattice test?

    The reachable values of ``sum(c_k * x_k) + const`` lie on the lattice
    ``const + gcd(c_k) * Z`` intersected with the interval bounds.  If the
    lattice misses the window, overlap is impossible.
    """
    lo, hi = diff.bounds()
    if not _interval_intersects(lo, hi, wlo, whi):
        return False
    coeffs = [c for _, c in diff.iv_terms]
    if not coeffs:
        return wlo <= diff.const <= whi
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g == 0:
        return wlo <= diff.const <= whi
    # Window clipped to the reachable interval.
    wlo = max(wlo, lo)
    whi = min(whi, hi)
    # Does any value == const (mod g) fall in [wlo, whi]?  The first
    # lattice point >= wlo, in exact integer arithmetic: a float ceil
    # rounds the wrong way once offsets pass 2**53.
    first = diff.const - ((diff.const - wlo) // g) * g
    return first <= whi


def _enumerate(diff: AffineExpr, wlo: int, whi: int, limit: int) -> Optional[Tuple[bool, bool]]:
    """Exact (can_overlap, always_overlaps) by sweeping the joint domain.

    Returns ``None`` when the domain is larger than *limit*.

    The sweep skips every subtree it can decide whole.  With the first
    ``k`` induction variables fixed, the remaining ones add between
    ``span_lo[k]`` and ``span_hi[k]`` (each trip range is non-empty, so
    both ends are reached): if that interval misses the window no point
    below overlaps, if it lies inside every point does.  When one point
    overlaps and another does not, the answer is settled and the sweep
    ends.
    """
    ivars = diff.ivars
    size = 1
    for iv in ivars:
        size *= iv.trip_count
        if size > limit:
            return None
    terms = diff.iv_terms
    span_lo = [0] * (len(terms) + 1)
    span_hi = [0] * (len(terms) + 1)
    for k in reversed(range(len(terms))):
        iv, coeff = terms[k]
        span = coeff * (iv.trip_count - 1)
        span_lo[k] = span_lo[k + 1] + min(span, 0)
        span_hi[k] = span_hi[k + 1] + max(span, 0)
    can = False
    always = True

    def rec(k: int, acc: int) -> None:
        nonlocal can, always
        lo = acc + span_lo[k]
        hi = acc + span_hi[k]
        if hi < wlo or lo > whi:
            always = False
            return
        if wlo <= lo and hi <= whi:
            can = True
            return
        iv, coeff = terms[k]
        for v in iv.domain:
            rec(k + 1, acc + coeff * v)
            if can and not always:
                return

    rec(0, diff.const)
    return can, always


def compare_offsets(
    a: AddressExpr,
    b: AddressExpr,
    single_iv_only: bool,
) -> OffsetRelation:
    """Overlap relation of two accesses with provably identical bases."""
    diff = a.offset - b.offset
    if diff.has_syms:
        return OffsetRelation(AliasLabel.MAY)

    wlo, whi = _window(a.width, b.width)

    if diff.is_constant:
        if wlo <= diff.const <= whi:
            exact = diff.const == 0 and a.width == b.width
            return OffsetRelation(AliasLabel.MUST, exact=exact)
        return OffsetRelation(AliasLabel.NO)

    if single_iv_only and len(diff.iv_terms) > 1:
        return OffsetRelation(AliasLabel.MAY)

    # Cheap interval/lattice refutation first.
    if not _gcd_hits_window(diff, wlo, whi):
        return OffsetRelation(AliasLabel.NO)

    exact_result = _enumerate(diff, wlo, whi, DEFAULT_ENUMERATION_LIMIT)
    if exact_result is None:
        return OffsetRelation(AliasLabel.MAY)
    can, always = exact_result
    if not can:
        return OffsetRelation(AliasLabel.NO)
    if always:
        # Overlaps at every domain point; exact only if the difference is
        # identically zero, which the constant case already handled.
        return OffsetRelation(AliasLabel.MUST, exact=False)
    return OffsetRelation(AliasLabel.MAY)


def offset_rows(graph: DFGraph) -> List[Tuple[Operation, int, int, int]]:
    """``(op, shape, const, width)`` for each memory op, in program order.

    ``shape`` numbers the offset's ``(iv_terms, sym_terms)`` within
    *graph*: two accesses of one shape differ by ``const_a - const_b``,
    so they overlap exactly when ``-width_a < const_a - const_b <
    width_b``, and match exactly when that difference is 0 and the
    widths are equal.
    """
    shape_ids: Dict[tuple, int] = {}
    rows = []
    for op in graph.memory_ops:
        addr = op.addr
        offset = addr.offset
        rows.append((
            op,
            shape_ids.setdefault((offset.iv_terms, offset.sym_terms), len(shape_ids)),
            offset.const,
            addr.width,
        ))
    return rows
