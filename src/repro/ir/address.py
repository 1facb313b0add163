"""Symbolic address expressions for memory operations.

The NACHOS compiler reasons about whether two memory operations can touch
the same location.  We represent every address the way LLVM's scalar
evolution would canonicalize it::

    address = base + sum(coeff_k * ivar_k) + sum(coeff_m * sym_m) + const

where

* ``base`` is either a known allocation (:class:`MemObject`) or an opaque
  pointer that entered the region as an argument (:class:`PointerParam`),
* ``ivar_k`` are loop induction variables with known trip counts (the
  region is a superblock of an unrolled loop, so induction variables are
  fixed within one invocation and advance between invocations),
* ``sym_m`` are opaque runtime values (e.g. an index loaded from memory,
  as in ``hist[bucket[i]]``) that no static analysis can resolve.

The precision ladder of the four NACHOS-SW stages maps onto this
representation directly:

* **Stage 1** (LLVM basic/TBAA/SCEV) resolves distinct bases and
  single-induction-variable affine expressions.
* **Stage 2** (inter-procedural) resolves :class:`PointerParam` bases whose
  ``provenance`` can be traced to a source object in the caller.
* **Stage 4** (polyhedral) resolves multi-induction-variable affine
  expressions over the bounded iteration domain.

Expressions containing :class:`Sym` terms stay MAY forever — those are the
pairs only the NACHOS hardware comparator can disambiguate.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union


class MemorySpace(enum.Enum):
    """Address-space classification used by scratchpad promotion."""

    HEAP = "heap"
    GLOBAL = "global"
    STACK = "stack"
    SCRATCHPAD = "scratchpad"


_object_ids = itertools.count()


@dataclass(frozen=True)
class MemObject:
    """A named allocation (array, global, or stack slot).

    ``base_addr`` gives the object a concrete position in the simulated
    address space so trace generators and the correctness oracle can turn
    symbolic addresses into byte addresses.
    """

    name: str
    size: int
    space: MemorySpace = MemorySpace.HEAP
    element_size: int = 8
    base_addr: int = 0
    uid: int = field(default_factory=lambda: next(_object_ids))

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"object {self.name!r} must have positive size")
        if self.element_size <= 0:
            raise ValueError(f"object {self.name!r} element_size must be positive")

    @property
    def is_local(self) -> bool:
        """True when the object can be promoted to a scratchpad."""
        return self.space in (MemorySpace.STACK, MemorySpace.SCRATCHPAD)

    def contains(self, addr: int) -> bool:
        """Return True if byte ``addr`` falls inside this object."""
        return self.base_addr <= addr < self.base_addr + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemObject({self.name}@{self.base_addr:#x}+{self.size})"


@dataclass(frozen=True)
class PointerParam:
    """A pointer whose allocation site is outside the region.

    ``runtime_object`` is the ground-truth target, used only by trace
    generation and the correctness oracle — *never* by stage-1 analysis.
    ``provenance`` is what a tractable inter-procedural trace (stage 2) can
    prove; ``None`` means the provenance chain is lost (e.g. the pointer
    was stored to memory and reloaded) and the compiler stays uncertain.
    """

    name: str
    runtime_object: MemObject
    provenance: Optional[MemObject] = None
    uid: int = field(default_factory=lambda: next(_object_ids))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        prov = self.provenance.name if self.provenance else "?"
        return f"PointerParam({self.name}->{self.runtime_object.name}, prov={prov})"


PointerBase = Union[MemObject, PointerParam]


@dataclass(frozen=True)
class IVar:
    """A loop induction variable with a known iteration domain.

    Within one region invocation the variable holds a single (unknown)
    value in ``range(0, trip_count)``; across invocations it sweeps the
    domain.  Alias analysis must therefore prove facts for *all* values in
    the domain.
    """

    name: str
    trip_count: int

    def __post_init__(self) -> None:
        if self.trip_count <= 0:
            raise ValueError(f"ivar {self.name!r} needs a positive trip count")

    @property
    def domain(self) -> range:
        return range(self.trip_count)


@dataclass(frozen=True)
class Sym:
    """An opaque runtime value no static analysis can resolve.

    ``lo``/``hi`` optionally record an inclusive value range the front-end
    *can* prove (e.g. an index produced by a bounded table lookup, or a
    value masked to a power of two).  Stages 1--4 never look at the
    bounds — symbolic offsets stay MAY there, exactly as in the paper —
    but the stage-5 separation-logic checker uses them to bound the
    footprint of an access and, when the joint domain is small enough,
    to decide overlap exactly.  Both bounds must be given together;
    an unbounded symbol has ``lo is None and hi is None``.
    """

    name: str
    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.lo is None) != (self.hi is None):
            raise ValueError(
                f"sym {self.name!r} needs both bounds or neither"
            )
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"sym {self.name!r} has empty range [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        return self.lo is not None

    @property
    def domain(self) -> range:
        """Inclusive value range as a ``range``; requires :attr:`bounded`."""
        if self.lo is None or self.hi is None:
            raise ValueError(f"sym {self.name!r} is unbounded")
        return range(self.lo, self.hi + 1)


def _normalize(terms: Mapping) -> Tuple:
    """Drop zero coefficients and produce a canonical sorted tuple."""
    items = [(v, c) for v, c in terms.items() if c != 0]
    items.sort(key=lambda vc: vc[0].name)
    return tuple(items)


#: Distinct term combinations :func:`_combine_terms` keeps.  A compile of
#: every suite region asks for about 1,500; the bound keeps a long-lived
#: process (the serve daemon) from growing with the regions it has seen.
COMBINE_MEMO_SIZE = 1 << 12


@functools.lru_cache(maxsize=COMBINE_MEMO_SIZE)
def _combine_terms(
    iv_a: Tuple[Tuple[IVar, int], ...],
    sym_a: Tuple[Tuple[Sym, int], ...],
    iv_b: Tuple[Tuple[IVar, int], ...],
    sym_b: Tuple[Tuple[Sym, int], ...],
    sign: int,
) -> Tuple[Tuple[Tuple[IVar, int], ...], Tuple[Tuple[Sym, int], ...]]:
    """The normalized IV and symbol terms of ``a + sign * b``.

    They depend only on the two offsets' terms, never on their
    constants, and the compiler forms the same few differences over and
    over, so the result is memoized (the terms are immutable tuples).
    """
    ivs: Dict[IVar, int] = dict(iv_a)
    for iv, c in iv_b:
        ivs[iv] = ivs.get(iv, 0) + sign * c
    syms: Dict[Sym, int] = dict(sym_a)
    for s, c in sym_b:
        syms[s] = syms.get(s, 0) + sign * c
    return _normalize(ivs), _normalize(syms)


@dataclass(frozen=True)
class AffineExpr:
    """``sum(coeff*ivar) + sum(coeff*sym) + const`` over integers."""

    iv_terms: Tuple[Tuple[IVar, int], ...] = ()
    sym_terms: Tuple[Tuple[Sym, int], ...] = ()
    const: int = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value: int) -> "AffineExpr":
        return cls(const=value)

    @classmethod
    def of(
        cls,
        const: int = 0,
        ivs: Optional[Mapping[IVar, int]] = None,
        syms: Optional[Mapping[Sym, int]] = None,
    ) -> "AffineExpr":
        return cls(
            iv_terms=_normalize(ivs or {}),
            sym_terms=_normalize(syms or {}),
            const=const,
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _combine(self, other: "AffineExpr", sign: int) -> "AffineExpr":
        iv_terms, sym_terms = _combine_terms(
            self.iv_terms, self.sym_terms, other.iv_terms, other.sym_terms, sign
        )
        return AffineExpr(iv_terms, sym_terms, self.const + sign * other.const)

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        return self._combine(other, +1)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self._combine(other, -1)

    def scaled(self, factor: int) -> "AffineExpr":
        return AffineExpr.of(
            self.const * factor,
            {iv: c * factor for iv, c in self.iv_terms},
            {s: c * factor for s, c in self.sym_terms},
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.iv_terms and not self.sym_terms

    @property
    def has_syms(self) -> bool:
        return bool(self.sym_terms)

    @property
    def ivars(self) -> Tuple[IVar, ...]:
        return tuple(iv for iv, _ in self.iv_terms)

    @property
    def is_single_iv(self) -> bool:
        """Affine in at most one induction variable and no symbols."""
        return not self.sym_terms and len(self.iv_terms) <= 1

    def bounds(self) -> Tuple[int, int]:
        """Inclusive (min, max) of the expression over the IV domains.

        Symbols are treated as unbounded; callers must check
        :attr:`has_syms` first.
        """
        if self.has_syms:
            raise ValueError("cannot bound an expression with opaque symbols")
        lo = hi = self.const
        for iv, c in self.iv_terms:
            span = c * (iv.trip_count - 1)
            if span >= 0:
                hi += span
            else:
                lo += span
        return lo, hi

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with concrete values for every IV and symbol."""
        total = self.const
        for iv, c in self.iv_terms:
            total += c * env[iv.name]
        for s, c in self.sym_terms:
            total += c * env[s.name]
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c}*{iv.name}" for iv, c in self.iv_terms]
        parts += [f"{c}*{s.name}" for s, c in self.sym_terms]
        parts.append(str(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class AddressExpr:
    """The full symbolic address of a memory operation.

    ``width`` is the access footprint in bytes; two accesses overlap when
    their byte ranges intersect.  ``type_tag`` feeds the type-based alias
    check (LLVM TBAA analogue): accesses with different non-None tags are
    assumed disjoint.
    """

    base: PointerBase
    offset: AffineExpr
    width: int = 8
    type_tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("access width must be positive")

    # ------------------------------------------------------------------
    # Ground truth (used by trace generation / oracle, not by stage 1)
    # ------------------------------------------------------------------
    @property
    def runtime_base(self) -> MemObject:
        """The allocation actually referenced at runtime."""
        if isinstance(self.base, PointerParam):
            return self.base.runtime_object
        return self.base

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Concrete byte address for one invocation's variable bindings."""
        return self.runtime_base.base_addr + self.offset.evaluate(env)

    # ------------------------------------------------------------------
    # Static views (what the compiler stages may look at)
    # ------------------------------------------------------------------
    @property
    def static_base(self) -> Optional[MemObject]:
        """The base object *provable* without inter-procedural analysis."""
        if isinstance(self.base, MemObject):
            return self.base
        return None

    @property
    def interprocedural_base(self) -> Optional[MemObject]:
        """The base object provable with stage-2 provenance tracing."""
        if isinstance(self.base, MemObject):
            return self.base
        return self.base.provenance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.base.name
        return f"&{name}[{self.offset!r}]:{self.width}"
