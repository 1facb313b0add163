"""Unit tests for the symbolic overlap engine (compare_offsets)."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from repro.compiler.aliasing.stage1 import analyze_stage1
from repro.compiler.aliasing.stage4 import refine_stage4
from repro.compiler.aliasing.symbolic import (
    DEFAULT_ENUMERATION_LIMIT,
    _enumerate,
    _gcd_hits_window,
    compare_offsets,
)
from repro.compiler.labels import AliasLabel
from repro.ir import RegionBuilder
from repro.ir.address import AddressExpr, AffineExpr, IVar, MemObject, Sym

OBJ = MemObject("base", 1 << 20)


def addr(offset, width=8):
    return AddressExpr(OBJ, offset, width=width)


def rel(a, b, single_iv_only=True, limit=1 << 16):
    return compare_offsets(a, b, single_iv_only=single_iv_only, enumeration_limit=limit)


class TestConstantOffsets:
    def test_identical_is_must_exact(self):
        r = rel(addr(AffineExpr.constant(16)), addr(AffineExpr.constant(16)))
        assert r.label is AliasLabel.MUST
        assert r.exact

    def test_disjoint_is_no(self):
        r = rel(addr(AffineExpr.constant(0)), addr(AffineExpr.constant(8)))
        assert r.label is AliasLabel.NO

    def test_partial_overlap_is_must_not_exact(self):
        r = rel(addr(AffineExpr.constant(0)), addr(AffineExpr.constant(4)))
        assert r.label is AliasLabel.MUST
        assert not r.exact

    def test_width_matters_for_exactness(self):
        r = rel(addr(AffineExpr.constant(0), width=8), addr(AffineExpr.constant(0), width=4))
        assert r.label is AliasLabel.MUST
        assert not r.exact

    def test_adjacent_ranges_do_not_overlap(self):
        # [0, 8) and [8, 12) share no byte.
        r = rel(addr(AffineExpr.constant(0), 8), addr(AffineExpr.constant(8), 4))
        assert r.label is AliasLabel.NO


class TestSingleIV:
    def test_same_stride_distinct_lanes_is_no(self):
        i = IVar("i", 128)
        a = addr(AffineExpr.of(const=0, ivs={i: 64}))
        b = addr(AffineExpr.of(const=8, ivs={i: 64}))
        assert rel(a, b).label is AliasLabel.NO

    def test_same_expression_is_must_exact(self):
        i = IVar("i", 128)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={i: 8}))
        r = rel(a, b)
        assert r.label is AliasLabel.MUST and r.exact

    def test_different_strides_may_collide(self):
        # 8i vs 16i: equal at i=0 -> overlap possible but not always.
        i = IVar("i", 16)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={i: 16}))
        assert rel(a, b).label is AliasLabel.MAY

    def test_different_strides_never_colliding(self):
        # diff = 8i + 1000, i in [0,16): always >= 1000.
        i = IVar("i", 16)
        a = addr(AffineExpr.of(const=1000, ivs={i: 16}))
        b = addr(AffineExpr.of(ivs={i: 8}))
        assert rel(a, b).label is AliasLabel.NO

    def test_gcd_refutation(self):
        # diff = 16i + 4 with width-1 accesses: 16i+4 can never be 0;
        # window is [0, 0] and the lattice 4 + 16Z misses it.
        i = IVar("i", 1 << 20)  # too big to enumerate
        a = addr(AffineExpr.of(const=4, ivs={i: 16}), width=1)
        b = addr(AffineExpr.of(ivs={}), width=1)
        assert rel(a, b, limit=4).label is AliasLabel.NO


class TestMultiIV:
    def test_single_iv_mode_punts(self):
        i, j = IVar("i", 8), IVar("j", 8)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={j: 8}))
        assert rel(a, b, single_iv_only=True).label is AliasLabel.MAY

    def test_polyhedral_mode_resolves_disjoint_blocks(self):
        i, j = IVar("i", 8), IVar("j", 8)
        a = addr(AffineExpr.of(const=1024, ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={j: 8}))  # max 56+8 < 1024
        assert rel(a, b, single_iv_only=False).label is AliasLabel.NO

    def test_polyhedral_mode_detects_possible_overlap(self):
        i, j = IVar("i", 8), IVar("j", 8)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={j: 8}))
        assert rel(a, b, single_iv_only=False).label is AliasLabel.MAY

    def test_enumeration_limit_falls_back_to_may(self):
        i, j = IVar("i", 1024), IVar("j", 1024)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={j: 8}))
        r = rel(a, b, single_iv_only=False, limit=16)
        assert r.label is AliasLabel.MAY  # conservative, not wrong

    def test_always_overlap_is_must(self):
        # diff = 8i - 8i = 0 via two IVs with identical terms.
        i = IVar("i", 8)
        j = IVar("j", 4)
        a = addr(AffineExpr.of(ivs={i: 8, j: 16}))
        b = addr(AffineExpr.of(ivs={i: 8, j: 16}))
        r = rel(a, b, single_iv_only=False)
        assert r.label is AliasLabel.MUST
        assert r.exact  # constant zero difference


class TestSyms:
    def test_sym_difference_is_may(self):
        s = Sym("s")
        a = addr(AffineExpr.of(syms={s: 8}))
        b = addr(AffineExpr.constant(0))
        assert rel(a, b).label is AliasLabel.MAY

    def test_same_sym_cancels_to_must(self):
        s = Sym("s")
        a = addr(AffineExpr.of(syms={s: 8}))
        b = addr(AffineExpr.of(syms={s: 8}))
        r = rel(a, b)
        assert r.label is AliasLabel.MUST and r.exact


# ----------------------------------------------------------------------
# Offsets past 2**53: the lattice test must stay in integers
# ----------------------------------------------------------------------
def _big_repro():
    """``arr[2**61 - (2**61+4)*i + 12*j]`` vs ``arr[0]``, i and j trip 2.

    At i=1, j=0 the difference is -4: the 8-byte accesses overlap.
    """
    i, j = IVar("i", 2), IVar("j", 2)
    far = addr(AffineExpr.of(const=2**61, ivs={i: -(2**61 + 4), j: 12}))
    return far, addr(AffineExpr.constant(0))


class TestLargeOffsets:
    def test_repro_pair_is_may_not_no(self):
        a, b = _big_repro()
        assert rel(a, b, single_iv_only=False).label is AliasLabel.MAY
        # Even with enumeration starved, the lattice test must not refute.
        assert rel(a, b, single_iv_only=False, limit=1).label is AliasLabel.MAY

    def test_stage4_labels_repro_pair_may(self):
        a, b = _big_repro()
        builder = RegionBuilder()
        x = builder.input("x")
        st = builder.store(OBJ, a.offset, value=x)
        ld = builder.load(OBJ, b.offset)
        graph = builder.build()
        stage1 = analyze_stage1(graph)
        assert stage1.get(st.op_id, ld.op_id) is AliasLabel.MAY
        stage4 = refine_stage4(graph, stage1)
        assert stage4.get(st.op_id, ld.op_id) is AliasLabel.MAY

    def test_gcd_window_matches_exact_arithmetic(self):
        # Random large-offset differences: the lattice answer must equal
        # the one computed with exact rationals.
        rng = random.Random(2053)
        for _ in range(5000):
            ivs = {
                IVar(f"i{k}", rng.randint(1, 1 << 20)): rng.choice((-1, 1))
                * rng.randint(1, 1 << rng.choice((3, 20, 40, 62)))
                for k in range(rng.randint(1, 3))
            }
            diff = AffineExpr.of(
                const=rng.choice((-1, 1)) * rng.randint(0, 1 << rng.choice((8, 54, 63, 70))),
                ivs=ivs,
            )
            wlo = -rng.randint(0, 64)
            whi = rng.randint(0, 64)
            assert _gcd_hits_window(diff, wlo, whi) == _exact_gcd_hit(diff, wlo, whi), (
                diff, wlo, whi,
            )

    def test_gcd_window_is_sound_on_enumerable_large_offsets(self):
        # Wherever a point of the domain lands in the window, the lattice
        # test must admit it (it may only refute impossible overlaps).
        rng = random.Random(61)
        for _ in range(2000):
            ivs = {
                IVar(f"i{k}", rng.randint(1, 3)): rng.choice((-1, 1))
                * rng.randint(1, 1 << 62)
                for k in range(rng.randint(1, 3))
            }
            diff = AffineExpr.of(ivs=ivs)
            # Put one domain point at a window offset.
            point = {iv.name: rng.randrange(iv.trip_count) for iv, _c in diff.iv_terms}
            diff = diff + AffineExpr.constant(rng.randint(-7, 7) - diff.evaluate(point))
            assert _gcd_hits_window(diff, -7, 7), diff


def _exact_gcd_hit(diff: AffineExpr, wlo: int, whi: int) -> bool:
    """The lattice test of ``_gcd_hits_window`` with rational arithmetic."""
    lo, hi = diff.bounds()
    wlo, whi = max(wlo, lo), min(whi, hi)
    if wlo > whi:
        return False
    g = 0
    for _iv, c in diff.iv_terms:
        g = math.gcd(g, abs(c))
    first = diff.const + math.ceil(Fraction(wlo - diff.const, g)) * g
    return first <= whi


# ----------------------------------------------------------------------
# The pruned stage-1/4 sweep against itertools.product
# ----------------------------------------------------------------------
def _brute(diff: AffineExpr, wlo: int, whi: int):
    names = [iv.name for iv, _c in diff.iv_terms]
    can, always = False, True
    for values in itertools.product(*(iv.domain for iv, _c in diff.iv_terms)):
        if wlo <= diff.evaluate(dict(zip(names, values))) <= whi:
            can = True
        else:
            always = False
    return can, always


def _points(diff: AffineExpr) -> int:
    return math.prod(iv.trip_count for iv, _c in diff.iv_terms)


class TestEnumeratePruning:
    SEED = 4242
    CASES = 300

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(self.SEED)
        out = []
        while len(out) < self.CASES:
            diff = AffineExpr.of(
                const=rng.randint(-800, 800),
                ivs={
                    IVar(f"i{k}", rng.randint(8, 64)): rng.choice((-1, 1)) * rng.randint(1, 24)
                    for k in range(rng.randint(1, 3))
                },
            )
            if _points(diff) > 20000:
                continue  # keep the brute force quick
            lo, hi = diff.bounds()
            kind = rng.randrange(5)
            if kind == 4:  # edges within one of the span's ends
                wlo, whi = lo + rng.randint(-1, 1), hi + rng.randint(-1, 1)
            elif kind == 0:  # an access-sized window
                wlo, whi = -rng.randint(0, 8), rng.randint(0, 8)
            elif kind == 1:  # wider than the whole value span
                wlo, whi = lo - rng.randint(0, 50), hi + rng.randint(0, 50)
            elif kind == 2:  # a window cutting the span
                wlo = rng.randint(lo, hi)
                whi = wlo + rng.randint(0, hi - lo)
            else:  # clear of the span
                wlo = lo - rng.randint(1, 50) - 50
                whi = wlo + rng.randint(0, 49)
            out.append((diff, wlo, whi))
        return out

    def test_matches_brute_force(self, cases):
        outcomes = set()
        for diff, wlo, whi in cases:
            got = _enumerate(diff, wlo, whi, DEFAULT_ENUMERATION_LIMIT)
            assert got == _brute(diff, wlo, whi), (diff, wlo, whi)
            outcomes.add(got)
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_every_shortcut_decides_real_subtrees(self, cases, sweep_calls):
        # The outside prune (NO), the inside prune (MUST) and the early
        # exit (MAY) each decide some case in fewer visits than points.
        short = set()
        for diff, wlo, whi in cases:
            got, calls = sweep_calls(_enumerate, diff, wlo, whi, DEFAULT_ENUMERATION_LIMIT)
            if calls < _points(diff):
                short.add(got)
        assert short == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("const, expected", [(0, (True, True)), (-(10**6), (False, False))])
    def test_full_size_domain_decided_without_sweep(self, const, expected, sweep_calls):
        # 256 x 256 = 65,536 points, exactly the enumeration limit, all
        # inside (or clear of) the window: one visit decides it.
        diff = AffineExpr.of(const=const, ivs={IVar("i", 256): 3, IVar("j", 256): -2})
        assert _points(diff) == DEFAULT_ENUMERATION_LIMIT
        got, calls = sweep_calls(_enumerate, diff, -1000, 1000, DEFAULT_ENUMERATION_LIMIT)
        assert got == expected
        assert calls == 1
