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
  it.

One oracle memo per region graph.  The oracle's state for a graph is
built once and hung on it (``DFGraph._oracle``, dropped by ``add_op``,
never pickled or cloned, rebuilt when the enumeration bound differs
from the one it was built under): a row per memory op and a memo of
:func:`separation_verdict` per (offset shapes, constant difference,
widths) key.  A pair is settled by its rows' keys where they decide it
(:func:`_row_verdict`): differing TBAA tags, two distinct heaplets, or
one heaplet with offsets of the same shape, whose constant difference
``c_a - c_b`` is tested against the overlap window without an
:class:`AffineExpr` being built; any other pair reads the memo, so the
per-pair rule is the one source of every memo entry and every verdict
equals :func:`oracle_verdict`.  Two readers share the state:

* stage 5 asks for each symbolic MAY pair through :func:`pair_verdict`
  and never writes the state itself;
* :func:`region_verdicts` answers every ST-ST / ST-LD / LD-ST pair of
  the region, for the coverage checker (:mod:`repro.compiler.coverage`)
  and the fuzzer's ``oracle`` check; after a compile it finds most
  general keys already settled by stage 5.

Stages 1--4 never read it: the bucketing, like the per-pair rule,
shares nothing with :mod:`~repro.compiler.aliasing.symbolic` beyond
``AffineExpr`` arithmetic and the enumeration bound.

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
from repro.compiler.aliasing import symbolic
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


#: Every verdict the oracle can return.  A verdict carries no pair-specific
#: field, so both entry points hand out these shared frozen objects.
_TBAA_NO = OracleVerdict(AliasLabel.NO, decided_by="tbaa")
_HEAPLET_NO = OracleVerdict(
    AliasLabel.NO, decided_by="heaplet", can_overlap=False, always_overlaps=False
)
_OPAQUE_MAY = OracleVerdict(AliasLabel.MAY, decided_by="opaque")
_CONSTANT_NO = OracleVerdict(
    AliasLabel.NO, decided_by="constant", can_overlap=False, always_overlaps=False
)
_CONSTANT_MUST = OracleVerdict(
    AliasLabel.MUST, decided_by="constant", can_overlap=True, always_overlaps=True
)
_CONSTANT_EXACT = OracleVerdict(
    AliasLabel.MUST,
    exact=True,
    decided_by="constant",
    can_overlap=True,
    always_overlaps=True,
)
_ENUMERATION_NO = OracleVerdict(
    AliasLabel.NO, decided_by="enumeration", can_overlap=False, always_overlaps=False
)
_ENUMERATION_MUST = OracleVerdict(
    AliasLabel.MUST, decided_by="enumeration", can_overlap=True, always_overlaps=True
)
_ENUMERATION_MAY = OracleVerdict(
    AliasLabel.MAY, decided_by="enumeration", can_overlap=True, always_overlaps=False
)
_LATTICE_NO = OracleVerdict(AliasLabel.NO, decided_by="lattice")
_INTERVAL_MUST = OracleVerdict(AliasLabel.MUST, decided_by="interval")


def _window(width_a: int, width_b: int) -> Tuple[int, int]:
    # Ranges [oa, oa+wa) and [ob, ob+wb) intersect iff -wa < oa-ob < wb.
    return (-width_a + 1, width_b - 1)


def separation_verdict(
    a: AddressExpr,
    b: AddressExpr,
) -> OracleVerdict:
    """Separating-conjunction disjointness of two access footprints.

    Independent of :func:`repro.compiler.aliasing.symbolic.compare_offsets`
    by construction — this is what lets the fuzzer use it as an oracle
    against stages 1--4.  The two share only the enumeration bound,
    ``symbolic.DEFAULT_ENUMERATION_LIMIT``, read at call time.
    """
    if (
        a.type_tag is not None
        and b.type_tag is not None
        and a.type_tag != b.type_tag
    ):
        # The same axiom the pipeline assumes (-fstrict-aliasing): typed
        # heaplets of different tags are separate by fiat.
        return _TBAA_NO

    disjoint = _heaplets_disjoint(heaplet_of(a), heaplet_of(b))
    if disjoint is True:
        return _HEAPLET_NO
    if disjoint is None:
        return _OPAQUE_MAY

    # Same heaplet: the separating conjunction reduces to byte-range
    # disjointness of the two interval formulas, i.e. to the value set of
    # the affine difference against the overlap window.
    diff = a.offset - b.offset
    wlo, whi = _window(a.width, b.width)

    if diff.is_constant:
        if wlo <= diff.const <= whi:
            if diff.const == 0 and a.width == b.width:
                return _CONSTANT_EXACT
            return _CONSTANT_MUST
        return _CONSTANT_NO

    swept = _enumerate_joint(diff, wlo, whi, symbolic.DEFAULT_ENUMERATION_LIMIT)
    if swept is not None:
        can, always = swept
        if not can:
            return _ENUMERATION_NO
        if always:
            # Overlaps at every domain point; never exact — an exact match
            # means an identically-zero difference, handled above.
            return _ENUMERATION_MUST
        return _ENUMERATION_MAY

    values = value_set(diff)
    if not values.intersects(wlo, whi):
        return _LATTICE_NO
    if values.within(wlo, whi):
        return _INTERVAL_MUST
    return _OPAQUE_MAY


def oracle_verdict(
    graph: DFGraph,
    older: int,
    younger: int,
) -> OracleVerdict:
    """Separation-logic verdict for one (older, younger) op pair of *graph*."""
    a = graph.op(older).addr
    b = graph.op(younger).addr
    if a is None or b is None:
        raise ValueError(f"ops ({older}, {younger}) must both be memory ops")
    return separation_verdict(a, b)


class _RegionOracle:
    """The oracle's state for one op table, hung on ``DFGraph._oracle``.

    ``rows`` holds one row per memory op, in program order: ``(op id,
    is-store, heaplet id, heaplet is an allocation, TBAA tag, offset
    shape id, constant, width, address)``, where the shape numbers the
    offset's ``(iv_terms, sym_terms)``.  ``index`` maps an op id to its
    row.  ``general`` memoizes :func:`separation_verdict` per ``(shape_a,
    shape_b, c_a - c_b, w_a, w_b)``: past the tag and heaplet checks a
    verdict depends only on the offset difference and the widths.
    ``limit`` is the enumeration bound those verdicts were computed
    under.
    """

    __slots__ = ("limit", "rows", "index", "general")

    def __init__(self, graph: DFGraph) -> None:
        heaplet_ids: Dict[Heaplet, int] = {}
        shape_ids: Dict[tuple, int] = {}
        rows = []
        for op in graph.memory_ops:
            addr = op.addr
            heaplet = heaplet_of(addr)
            offset = addr.offset
            rows.append((
                op.op_id,
                op.is_store,
                heaplet_ids.setdefault(heaplet, len(heaplet_ids)),
                heaplet[0] == "obj",
                addr.type_tag,
                shape_ids.setdefault(
                    (offset.iv_terms, offset.sym_terms), len(shape_ids)
                ),
                offset.const,
                addr.width,
                addr,
            ))
        self.limit = symbolic.DEFAULT_ENUMERATION_LIMIT
        self.rows = rows
        self.index = {row[0]: i for i, row in enumerate(rows)}
        self.general: Dict[tuple, OracleVerdict] = {}


def _region_oracle(graph: DFGraph) -> _RegionOracle:
    """*graph*'s oracle state, built on first use and whenever the op
    table or the enumeration bound has changed since."""
    state = graph._oracle
    if state is None or state.limit != symbolic.DEFAULT_ENUMERATION_LIMIT:
        state = graph._oracle = _RegionOracle(graph)
    return state


def _row_verdict(
    row_a: tuple, row_b: tuple, general: Dict[tuple, OracleVerdict]
) -> OracleVerdict:
    """The verdict on two rows (older first), settled by their keys:
    differing TBAA tags, two distinct heaplets, or one heaplet with
    offsets of the same shape, whose difference is the constant
    ``c_a - c_b``.  Any other pair is one :func:`separation_verdict`
    call per key of *general*."""
    _, _, h_a, obj_a, tag_a, shape_a, c_a, w_a, a = row_a
    _, _, h_b, obj_b, tag_b, shape_b, c_b, w_b, b = row_b
    if tag_a is not None and tag_b is not None and tag_a != tag_b:
        return _TBAA_NO
    if h_a != h_b:
        return _HEAPLET_NO if obj_a and obj_b else _OPAQUE_MAY
    d = c_a - c_b
    if shape_a == shape_b:
        if not -w_a < d < w_b:
            return _CONSTANT_NO
        if d == 0 and w_a == w_b:
            return _CONSTANT_EXACT
        return _CONSTANT_MUST
    key = (shape_a, shape_b, d, w_a, w_b)
    verdict = general.get(key)
    if verdict is None:
        verdict = general[key] = separation_verdict(a, b)
    return verdict


def pair_verdict(graph: DFGraph, older: int, younger: int) -> OracleVerdict:
    """:func:`oracle_verdict` on one pair, read through *graph*'s oracle
    state: the rows and the per-key memo :func:`region_verdicts` reads.

    This is how stage 5 asks the oracle, so a full compile leaves every
    key it settled for the coverage check that follows it.
    """
    state = _region_oracle(graph)
    index = state.index
    return _row_verdict(
        state.rows[index[older]], state.rows[index[younger]], state.general
    )


def region_verdicts(graph: DFGraph) -> Dict[Tuple[int, int], OracleVerdict]:
    """The oracle's verdict on every ST-ST / ST-LD / LD-ST pair of *graph*.

    Keyed ``(older, younger)`` in program order; each verdict equals
    :func:`oracle_verdict` on the same pair.  The rows and the per-key
    memo come from *graph*'s oracle state, shared with
    :func:`pair_verdict`; the dict itself is built afresh on each call.
    """
    state = _region_oracle(graph)
    rows, general = state.rows, state.general
    stores = [row for row in rows if row[1]]
    out: Dict[Tuple[int, int], OracleVerdict] = {}
    seen_stores = 0
    for i, row_a in enumerate(rows):
        if row_a[1]:
            seen_stores += 1
            later = rows[i + 1 :]
        else:
            later = stores[seen_stores:]  # LD-LD needs no ordering
        id_a = row_a[0]
        for row_b in later:
            out[(id_a, row_b[0])] = _row_verdict(row_a, row_b, general)
    return out


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


def refine_stage5(
    graph: DFGraph,
    matrix: AliasMatrix,
    exact_pairs: "Set[Tuple[int, int]] | None" = None,
    stats: Optional[Stage5Stats] = None,
) -> AliasMatrix:
    """Return a refined copy of *matrix*; only symbolic MAY labels change.

    Pairs whose offsets are pure affine expressions are exactly the ones
    stages 1--4 already decided with the same interval/lattice/enumeration
    power, so stage 5 leaves them untouched (keeping every existing label,
    plan, and golden timeline bit-identical for symbol-free regions) and
    attacks only the pairs at least one of whose offsets mentions a
    symbol.  Their verdicts are read through :func:`pair_verdict`, from
    the graph's oracle state, which the coverage check then reuses.
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
        verdict = pair_verdict(graph, older, younger)
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
