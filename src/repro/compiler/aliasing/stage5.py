"""Stage 5 — separation-logic alias oracle over the symbolic address language.

Stages 1--4 mirror what LLVM 3.8 + Polly could prove, and therefore bail
out the moment an offset contains an opaque symbol: ``compare_offsets``
returns MAY for any difference with ``has_syms``.  That leaves precision
on the table in three recurring shapes:

* **Cancelling symbols** — ``a[s + i]`` vs ``a[s + j]``: the symbol
  cancels in the difference, which is purely affine, but stage 4 never
  looks because the *individual* offsets are symbolic.
* **Congruence-disjoint symbols** — ``rec[16*s1 + 0]`` vs
  ``rec[16*s2 + 8]`` (field accesses of a strided record): the
  difference ``16*(s1 - s2) + 8`` is ``8 (mod 16)`` for *every* integer
  valuation of the symbols, which can never land in the overlap window
  of two 8-byte accesses.
* **Bounded symbols** — an index the front-end can bound (e.g. a table
  lookup, :attr:`repro.ir.address.Sym.lo`/``hi``): the footprint is a
  bounded interval, so interval separation and even exact enumeration
  apply.

This module decides such pairs with a separation-logic reading of the
address language: each access denotes a *footprint* — a heaplet (the
points-to root) carrying a byte-range formula — and two accesses are
disjoint exactly when the separating conjunction ``fp_a * fp_b`` is
satisfiable for every valuation, i.e. when their heaplets differ or
their byte ranges cannot intersect.  Byte-range entailment runs over the
value set of the affine difference: an interval (IV trip counts plus
declared symbol bounds) intersected with a lattice ``const + gcd·Z``
over **all** coefficients.  The lattice test is sound for *unbounded*
symbols — congruence holds for every integer — which is precisely the
power stages 1--4 lack.

Two deliberately separate entry points:

* :func:`refine_stage5` — the precision stage: refines symbolic MAY
  pairs in the pipeline (after stage 4, before stage-3 pruning).
* :func:`oracle_verdict` — the independent oracle: recomputes a verdict
  for *any* pair from the address expressions alone, sharing **no code
  path** with :mod:`repro.compiler.aliasing.symbolic`, so the
  differential fuzzer can cross-check every stage-1..4 verdict against
  it and the coverage checker (:mod:`repro.compiler.coverage`) can
  enumerate required happens-before pairs from it.

Verdict semantics match the pipeline's:  NO = footprints disjoint for
every valuation; MUST = footprints intersect for every valuation;
``exact`` = identical address and width for every valuation (the ST->LD
forwarding precondition).  Everything the oracle cannot prove stays MAY
— those remain NACHOS's runtime checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.compiler.labels import AliasLabel, AliasMatrix
from repro.compiler.aliasing.symbolic import DEFAULT_ENUMERATION_LIMIT
from repro.ir.address import AddressExpr, AffineExpr, MemObject, PointerParam
from repro.ir.graph import DFGraph


# ----------------------------------------------------------------------
# Footprints: heaplet identity
# ----------------------------------------------------------------------

#: A heaplet handle: ("obj", uid) for a provable allocation (directly or
#: via stage-2-style provenance), ("param", uid) for an opaque pointer
#: that at least names *itself* (two accesses through the same parameter
#: share a base even when its allocation site is unknown).
Heaplet = Tuple[str, int]


def heaplet_of(addr: AddressExpr) -> Heaplet:
    """The points-to root of an access's footprint."""
    base = addr.base
    if isinstance(base, MemObject):
        return ("obj", base.uid)
    assert isinstance(base, PointerParam)
    if base.provenance is not None:
        return ("obj", base.provenance.uid)
    return ("param", base.uid)


def _heaplets_disjoint(a: Heaplet, b: Heaplet) -> Optional[bool]:
    """True = provably separate, False = provably identical, None = unknown."""
    if a == b:
        return False
    if a[0] == "obj" and b[0] == "obj":
        return True  # distinct allocations never overlap
    # At least one opaque parameter with a different handle: it may point
    # anywhere, including into the other heaplet.
    return None


# ----------------------------------------------------------------------
# Byte-range value sets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ValueSet:
    """Sound over-approximation of an affine expression's reachable values.

    The values lie on the lattice ``phase + modulus * Z`` (``modulus = 0``
    means the single value ``phase``) clipped to the inclusive interval
    ``[lo, hi]``; ``None`` bounds mean unbounded (an unbounded symbol
    appears with a nonzero coefficient).
    """

    phase: int
    modulus: int
    lo: Optional[int]
    hi: Optional[int]

    def intersects(self, wlo: int, whi: int) -> bool:
        """Can any reachable value land in the window ``[wlo, whi]``?"""
        if self.lo is not None:
            wlo = max(wlo, self.lo)
        if self.hi is not None:
            whi = min(whi, self.hi)
        if wlo > whi:
            return False
        if self.modulus == 0:
            return wlo <= self.phase <= whi
        # First lattice point >= wlo, in exact integer arithmetic
        # (ceil((wlo - phase) / modulus) without float rounding).
        steps = -((self.phase - wlo) // self.modulus)
        first = self.phase + steps * self.modulus
        return first <= whi

    def within(self, wlo: int, whi: int) -> bool:
        """Do *all* reachable values land in the window ``[wlo, whi]``?"""
        return (
            self.lo is not None
            and self.hi is not None
            and wlo <= self.lo
            and self.hi <= whi
        )


def value_set(expr: AffineExpr) -> ValueSet:
    """Interval + gcd-lattice characterization of *expr*'s values.

    Induction variables contribute their trip-count span; bounded symbols
    contribute their declared range; an unbounded symbol makes the
    interval unbounded on both sides but still contributes its
    coefficient to the lattice — congruence holds for every integer, so
    the lattice part stays sound with no bounds at all.
    """
    modulus = 0
    lo: Optional[int] = expr.const
    hi: Optional[int] = expr.const

    def widen(span_lo: int, span_hi: int) -> None:
        nonlocal lo, hi
        if lo is not None:
            lo += span_lo
        if hi is not None:
            hi += span_hi

    for iv, coeff in expr.iv_terms:
        modulus = math.gcd(modulus, abs(coeff))
        span = coeff * (iv.trip_count - 1)
        widen(min(span, 0), max(span, 0))
    for sym, coeff in expr.sym_terms:
        modulus = math.gcd(modulus, abs(coeff))
        if sym.bounded:
            widen(min(coeff * sym.lo, coeff * sym.hi), max(coeff * sym.lo, coeff * sym.hi))
        else:
            lo = None
            hi = None
    return ValueSet(phase=expr.const, modulus=modulus, lo=lo, hi=hi)


def _enumerate_joint(
    diff: AffineExpr, wlo: int, whi: int, limit: int
) -> Optional[Tuple[bool, bool]]:
    """Exact ``(can_overlap, always_overlaps)`` by sweeping the joint domain.

    The domain is the product of every IV's trip range and every bounded
    symbol's declared range.  Returns ``None`` when any symbol is
    unbounded or the joint domain exceeds *limit* (checked before any
    sweeping, so the pairs decided here depend on the size alone).

    The sweep is a branch-and-bound over the dimensions.  Every domain is
    a non-empty integer range, so the values a subtree can still reach
    after fixing the first ``k`` dimensions form a set whose least and
    greatest members are ``acc + rest_lo[k]`` and ``acc + rest_hi[k]``.
    A subtree whose whole interval misses the window holds only
    non-overlapping points (``always`` becomes False); one whose whole
    interval lies inside holds only overlapping points (``can`` becomes
    True).  Either way the subtree can add nothing else, so skipping it
    keeps the result exact.  Once ``can and not always`` the answer is
    MAY whatever remains, and the sweep stops.
    """
    dims = []
    size = 1
    for iv, coeff in diff.iv_terms:
        dims.append((coeff, iv.domain))
        size *= iv.trip_count
        if size > limit:
            return None
    for sym, coeff in diff.sym_terms:
        if not sym.bounded:
            return None
        dims.append((coeff, sym.domain))
        size *= len(sym.domain)
        if size > limit:
            return None

    # rest_lo[k] / rest_hi[k]: least / greatest sum dimensions k.. can add.
    n = len(dims)
    rest_lo = [0] * (n + 1)
    rest_hi = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        coeff, domain = dims[k]
        first = coeff * domain[0]
        last = coeff * domain[-1]
        rest_lo[k] = rest_lo[k + 1] + min(first, last)
        rest_hi[k] = rest_hi[k + 1] + max(first, last)

    can = False
    always = True

    def rec(k: int, acc: int) -> None:
        nonlocal can, always
        if acc + rest_hi[k] < wlo or acc + rest_lo[k] > whi:
            always = False  # no point below overlaps
            return
        if wlo <= acc + rest_lo[k] and acc + rest_hi[k] <= whi:
            can = True  # every point below overlaps
            return
        # Straddles the window, so k < n (a leaf is a single point).
        coeff, domain = dims[k]
        for v in domain:
            rec(k + 1, acc + coeff * v)
            if can and not always:
                return

    rec(0, diff.const)
    return can, always


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    """One pair's separation-logic verdict.

    ``can_overlap`` / ``always_overlaps`` are known exactly only when the
    verdict came from a constant difference or a full enumeration
    (``decided_by`` in ``{"constant", "enumeration"}``); ``None`` means
    the question was answered by a sound over-approximation (or an axiom,
    for TBAA) that does not produce the exact booleans.
    """

    label: AliasLabel
    exact: bool = False
    decided_by: str = "opaque"
    can_overlap: Optional[bool] = None
    always_overlaps: Optional[bool] = None


def _window(width_a: int, width_b: int) -> Tuple[int, int]:
    # Ranges [oa, oa+wa) and [ob, ob+wb) intersect iff -wa < oa-ob < wb.
    return (-width_a + 1, width_b - 1)


def separation_verdict(
    a: AddressExpr,
    b: AddressExpr,
    use_tbaa: bool = True,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> OracleVerdict:
    """Separating-conjunction disjointness of two access footprints.

    Independent of :func:`repro.compiler.aliasing.symbolic.compare_offsets`
    by construction — this is what lets the fuzzer use it as an oracle
    against stages 1--4.
    """
    if use_tbaa and (
        a.type_tag is not None
        and b.type_tag is not None
        and a.type_tag != b.type_tag
    ):
        # The same axiom the pipeline assumes (-fstrict-aliasing): typed
        # heaplets of different tags are separate by fiat.
        return OracleVerdict(AliasLabel.NO, decided_by="tbaa")

    disjoint = _heaplets_disjoint(heaplet_of(a), heaplet_of(b))
    if disjoint is True:
        return OracleVerdict(
            AliasLabel.NO, decided_by="heaplet", can_overlap=False, always_overlaps=False
        )
    if disjoint is None:
        return OracleVerdict(AliasLabel.MAY, decided_by="opaque")

    # Same heaplet: the separating conjunction reduces to byte-range
    # disjointness of the two interval formulas, i.e. to the value set of
    # the affine difference against the overlap window.
    diff = a.offset - b.offset
    wlo, whi = _window(a.width, b.width)

    if diff.is_constant:
        if wlo <= diff.const <= whi:
            exact = diff.const == 0 and a.width == b.width
            return OracleVerdict(
                AliasLabel.MUST,
                exact=exact,
                decided_by="constant",
                can_overlap=True,
                always_overlaps=True,
            )
        return OracleVerdict(
            AliasLabel.NO, decided_by="constant", can_overlap=False, always_overlaps=False
        )

    swept = _enumerate_joint(diff, wlo, whi, enumeration_limit)
    if swept is not None:
        can, always = swept
        if not can:
            return OracleVerdict(
                AliasLabel.NO, decided_by="enumeration", can_overlap=False, always_overlaps=False
            )
        if always:
            # Overlaps at every domain point; never exact — an exact match
            # means an identically-zero difference, handled above.
            return OracleVerdict(
                AliasLabel.MUST, decided_by="enumeration", can_overlap=True, always_overlaps=True
            )
        return OracleVerdict(
            AliasLabel.MAY, decided_by="enumeration", can_overlap=True, always_overlaps=False
        )

    values = value_set(diff)
    if not values.intersects(wlo, whi):
        return OracleVerdict(AliasLabel.NO, decided_by="lattice")
    if values.within(wlo, whi):
        return OracleVerdict(AliasLabel.MUST, decided_by="interval")
    return OracleVerdict(AliasLabel.MAY, decided_by="opaque")


def oracle_verdict(
    graph: DFGraph,
    older: int,
    younger: int,
    use_tbaa: bool = True,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> OracleVerdict:
    """Separation-logic verdict for one (older, younger) op pair of *graph*."""
    a = graph.op(older).addr
    b = graph.op(younger).addr
    if a is None or b is None:
        raise ValueError(f"ops ({older}, {younger}) must both be memory ops")
    return separation_verdict(
        a, b, use_tbaa=use_tbaa, enumeration_limit=enumeration_limit
    )


# ----------------------------------------------------------------------
# The precision stage
# ----------------------------------------------------------------------


@dataclass
class Stage5Stats:
    """How much symbolic precision stage 5 recovered on one region."""

    symbolic_pairs: int = 0  # MAY pairs with symbolic offsets examined
    resolved_no: int = 0
    resolved_must: int = 0

    @property
    def resolved(self) -> int:
        return self.resolved_no + self.resolved_must

    def merge(self, other: "Stage5Stats") -> None:
        self.symbolic_pairs += other.symbolic_pairs
        self.resolved_no += other.resolved_no
        self.resolved_must += other.resolved_must


def refine_stage5(
    graph: DFGraph,
    matrix: AliasMatrix,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    exact_pairs: "Set[Tuple[int, int]] | None" = None,
    use_tbaa: bool = True,
    stats: Optional[Stage5Stats] = None,
) -> AliasMatrix:
    """Return a refined copy of *matrix*; only symbolic MAY labels change.

    Pairs whose offsets are pure affine expressions are exactly the ones
    stages 1--4 already decided with the same interval/lattice/enumeration
    power, so stage 5 leaves them untouched (keeping every existing label,
    plan, and golden timeline bit-identical for symbol-free regions) and
    attacks only the pairs at least one of whose offsets mentions a
    symbol.
    """
    refined = matrix.copy()
    ops: Dict[int, object] = {op.op_id: op for op in graph.memory_ops}
    for older, younger in matrix.pairs(AliasLabel.MAY):
        a = ops[older].addr
        b = ops[younger].addr
        if not (a.offset.has_syms or b.offset.has_syms):
            continue  # stages 1-4 territory; nothing new to say
        if stats is not None:
            stats.symbolic_pairs += 1
        verdict = separation_verdict(
            a, b, use_tbaa=use_tbaa, enumeration_limit=enumeration_limit
        )
        if verdict.label is AliasLabel.MAY:
            continue
        refined.set(older, younger, verdict.label)
        if stats is not None:
            if verdict.label is AliasLabel.NO:
                stats.resolved_no += 1
            else:
                stats.resolved_must += 1
        if verdict.exact and exact_pairs is not None:
            exact_pairs.add((older, younger))
    return refined
