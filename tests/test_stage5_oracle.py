"""The stage-5 separation-logic oracle against brute-force ground truth.

The oracle's whole value is that it is *independently* trustworthy — the
fuzzer uses it to judge stages 1--4, so nothing in the pipeline can vouch
for it.  These tests vouch for it the only honest way: enumeration.
Every randomized pair uses bounded symbols and small induction domains,
so the exact overlap truth (can the footprints ever intersect? do they
always?) is computable by sweeping every valuation, and the oracle's
verdict must match it exactly.  Directed cases then pin the individual
decision paths: widths and partial overlap, cache-line straddling,
negative strides, congruence over unbounded symbols, symbol
cancellation, TBAA, heaplet separation, and the interval MUST path.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.compiler.aliasing.stage5 import (
    OracleVerdict,
    Stage5Stats,
    ValueSet,
    _enumerate_joint,
    oracle_verdict,
    refine_stage5,
    separation_verdict,
    value_set,
)
from repro.compiler.aliasing.stage1 import analyze_stage1
from repro.compiler.aliasing.symbolic import DEFAULT_ENUMERATION_LIMIT
from repro.compiler.labels import AliasLabel
from repro.ir import RegionBuilder
from repro.ir.address import AddressExpr, AffineExpr, IVar, MemObject, PointerParam, Sym


# ----------------------------------------------------------------------
# Ground truth by enumeration
# ----------------------------------------------------------------------
def _variables(*exprs: AffineExpr):
    """(name, domain) for every IV and bounded symbol mentioned."""
    seen = {}
    for expr in exprs:
        for iv, _c in expr.iv_terms:
            seen[iv.name] = range(iv.trip_count)
        for s, _c in expr.sym_terms:
            assert s.bounded, "ground truth needs bounded symbols"
            seen[s.name] = s.domain
    return sorted(seen.items())


def _truth(a: AddressExpr, b: AddressExpr):
    """Exact (can_overlap, always_overlaps) over the full joint domain."""
    names_domains = _variables(a.offset, b.offset)
    can, always = False, True
    for values in itertools.product(*(d for _n, d in names_domains)):
        env = dict(zip((n for n, _d in names_domains), values))
        oa, ob = a.offset.evaluate(env), b.offset.evaluate(env)
        if -a.width < oa - ob < b.width:
            can = True
        else:
            always = False
    return can, always


def _random_pair(rng: random.Random, obj, syms, ivs):
    def side():
        const = rng.choice((0, 1, 2, 4, 7, 8, 12, 56, 60, 63, 64))
        terms = {}
        ivs_used = {}
        for _ in range(rng.randint(0, 2)):
            coeff = rng.choice((-16, -8, -3, -1, 1, 2, 3, 4, 8, 16))
            if rng.random() < 0.5:
                terms[rng.choice(syms)] = coeff
            else:
                ivs_used[rng.choice(ivs)] = coeff
        width = rng.choice((1, 2, 4, 8))
        return AddressExpr(
            obj,
            AffineExpr.of(const=const, syms=terms, ivs=ivs_used),
            width,
        )

    return side(), side()


class TestRandomizedAgainstEnumeration:
    """>= 500 random affine pairs: the verdict must match brute force."""

    SEED = 1234
    PAIRS = 600

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = random.Random(self.SEED)
        obj = MemObject("arr", 4096, base_addr=0x1000)
        syms = [Sym(f"s{k}", lo=0, hi=rng.randint(2, 6)) for k in range(4)]
        ivs = [IVar(f"i{k}", rng.randint(2, 5)) for k in range(3)]
        return [_random_pair(rng, obj, syms, ivs) for _ in range(self.PAIRS)]

    def test_corpus_size_and_diversity(self, corpus):
        assert len(corpus) >= 500
        labels = {separation_verdict(a, b).label for a, b in corpus}
        assert labels == set(AliasLabel), "corpus must exercise NO/MAY/MUST"

    def test_verdicts_match_ground_truth(self, corpus):
        for a, b in corpus:
            can, always = _truth(a, b)
            v = separation_verdict(a, b)
            # Bounded + small => the oracle decides exactly, not soundly.
            if not can:
                assert v.label is AliasLabel.NO, (a, b, v)
            elif always:
                assert v.label is AliasLabel.MUST, (a, b, v)
            else:
                assert v.label is AliasLabel.MAY, (a, b, v)

    def test_exact_booleans_match_ground_truth(self, corpus):
        for a, b in corpus:
            v = separation_verdict(a, b)
            can, always = _truth(a, b)
            if v.can_overlap is not None:
                assert v.can_overlap == can, (a, b, v)
            if v.always_overlaps is not None:
                assert v.always_overlaps == always, (a, b, v)

    def test_soundness_with_tiny_enumeration_budget(
        self, corpus, set_enumeration_limit
    ):
        # Starve the enumerator: verdicts fall back to lattice/interval
        # over-approximations, which must never contradict ground truth.
        set_enumeration_limit(1)
        for a, b in corpus:
            can, always = _truth(a, b)
            v = separation_verdict(a, b)
            if v.label is AliasLabel.NO:
                assert not can, (a, b, v)
            elif v.label is AliasLabel.MUST:
                assert always, (a, b, v)

    def test_symmetry(self, corpus):
        # Disjointness is symmetric; the verdict label must be too.
        for a, b in corpus[:200]:
            assert (
                separation_verdict(a, b).label is separation_verdict(b, a).label
            )


class TestWidthAndStraddleEdges:
    OBJ = MemObject("edge", 4096, base_addr=0)

    def _addr(self, const, width, syms=None):
        return AddressExpr(
            self.OBJ, AffineExpr.of(const=const, syms=syms or {}), width
        )

    def test_touching_ranges_do_not_overlap(self):
        # [0, 8) vs [8, 12): adjacency is disjointness.
        v = separation_verdict(self._addr(0, 8), self._addr(8, 4))
        assert v.label is AliasLabel.NO

    def test_one_byte_partial_overlap(self):
        # [0, 8) vs [7, 8): the last byte is shared.
        v = separation_verdict(self._addr(0, 8), self._addr(7, 1))
        assert v.label is AliasLabel.MUST
        assert not v.exact  # overlapping but not the same slot

    def test_narrow_within_wide_is_must_not_exact(self):
        v = separation_verdict(self._addr(0, 8), self._addr(2, 2))
        assert v.label is AliasLabel.MUST and not v.exact

    def test_same_slot_is_exact(self):
        v = separation_verdict(self._addr(16, 4), self._addr(16, 4))
        assert v.label is AliasLabel.MUST and v.exact

    def test_line_straddling_access(self):
        # [60, 68) straddles the 64-byte line; [64, 68) sits past it.
        v = separation_verdict(self._addr(60, 8), self._addr(64, 4))
        assert v.label is AliasLabel.MUST

    def test_symbolic_line_straddle(self):
        # 8s + 60 for s in [0, 8]: hits [60, 68) at s=0 only -> MAY.
        s = Sym("s", lo=0, hi=8)
        v = separation_verdict(
            self._addr(60, 8, {s: 8}), self._addr(64, 4)
        )
        assert v.label is AliasLabel.MAY
        assert v.can_overlap is True and v.always_overlaps is False

    def test_negative_stride(self):
        # 64 - 8s for s in [0, 7]: lands on {8..64}, never in the
        # window of an 8-byte access at 0 -> NO; widen the domain to
        # s in [0, 8] and it reaches 0 -> MAY.
        short = Sym("sn7", lo=0, hi=7)
        wide = Sym("sn8", lo=0, hi=8)
        no = separation_verdict(self._addr(64, 8, {short: -8}), self._addr(0, 8))
        may = separation_verdict(self._addr(64, 8, {wide: -8}), self._addr(0, 8))
        assert no.label is AliasLabel.NO
        assert may.label is AliasLabel.MAY and may.can_overlap is True


class TestUnboundedSymbolPaths:
    OBJ = MemObject("rec", 8192, base_addr=0)

    def test_congruence_disjoint_fields(self):
        # rec[16*s1 + 0] vs rec[16*s2 + 8], both 8 bytes wide: the
        # difference is 8 (mod 16) for every integer valuation, and
        # {..., -8, 8, ...} misses the window (-7, 7).  Stages 1-4
        # refuse this pair; the lattice decides it with no bounds.
        s1, s2 = Sym("u1"), Sym("u2")
        a = AddressExpr(self.OBJ, AffineExpr.of(syms={s1: 16}), 8)
        b = AddressExpr(self.OBJ, AffineExpr.of(const=8, syms={s2: 16}), 8)
        v = separation_verdict(a, b)
        assert v.label is AliasLabel.NO and v.decided_by == "lattice"

    def test_congruence_not_enough_for_narrow_fields(self):
        # Same records, 1-byte fields at 0 and 1: difference 1 (mod 2)
        # with gcd 2 stride... window (0, 0) excludes odd values -> NO;
        # but fields at 0 and 2 (gcd 2, even phase) can collide -> MAY.
        s1, s2 = Sym("v1"), Sym("v2")
        a = AddressExpr(self.OBJ, AffineExpr.of(syms={s1: 2}), 1)
        odd = AddressExpr(self.OBJ, AffineExpr.of(const=1, syms={s2: 2}), 1)
        even = AddressExpr(self.OBJ, AffineExpr.of(const=2, syms={s2: 2}), 1)
        assert separation_verdict(a, odd).label is AliasLabel.NO
        assert separation_verdict(a, even).label is AliasLabel.MAY

    def test_symbol_cancellation(self):
        # a[s + 4] vs a[s]: stage 1-4 bail (symbolic offsets); the
        # difference is the constant 4.
        s = Sym("w")
        base = AffineExpr.of(syms={s: 1})
        a = AddressExpr(self.OBJ, base + AffineExpr.constant(4), 4)
        b = AddressExpr(self.OBJ, base, 4)
        v = separation_verdict(a, b)
        assert v.label is AliasLabel.NO and v.decided_by == "constant"

    def test_identical_symbolic_slot_is_exact_must(self):
        s = Sym("z")
        a = AddressExpr(self.OBJ, AffineExpr.of(syms={s: 8}), 4)
        b = AddressExpr(self.OBJ, AffineExpr.of(syms={s: 8}), 4)
        v = separation_verdict(a, b)
        assert v.label is AliasLabel.MUST and v.exact

    def test_incommensurate_unbounded_syms_stay_may(self):
        s, t = Sym("p"), Sym("q")
        a = AddressExpr(self.OBJ, AffineExpr.of(syms={s: 3}), 1)
        b = AddressExpr(self.OBJ, AffineExpr.of(syms={t: 5}), 1)
        assert separation_verdict(a, b).label is AliasLabel.MAY


class TestHeapletsAndAxioms:
    def test_distinct_objects_are_separate(self):
        a = AddressExpr(MemObject("x", 64, base_addr=0), AffineExpr.constant(0), 8)
        b = AddressExpr(MemObject("y", 64, base_addr=0), AffineExpr.constant(0), 8)
        v = separation_verdict(a, b)
        assert v.label is AliasLabel.NO and v.decided_by == "heaplet"
        assert v.can_overlap is False

    def test_provenance_joins_the_object_heaplet(self):
        obj = MemObject("buf", 64, base_addr=0)
        p = PointerParam(name="p", runtime_object=obj, provenance=obj)
        a = AddressExpr(p, AffineExpr.constant(0), 8)
        b = AddressExpr(obj, AffineExpr.constant(0), 8)
        assert separation_verdict(a, b).label is AliasLabel.MUST

    def test_opaque_params_are_unknown(self):
        obj = MemObject("buf", 64, base_addr=0)
        p = PointerParam(name="p", runtime_object=obj, provenance=None)
        q = PointerParam(name="q", runtime_object=obj, provenance=None)
        a = AddressExpr(p, AffineExpr.constant(0), 8)
        b = AddressExpr(q, AffineExpr.constant(64), 8)
        v = separation_verdict(a, b)
        assert v.label is AliasLabel.MAY and v.decided_by == "opaque"

    def test_same_opaque_param_reasons_over_offsets(self):
        obj = MemObject("buf", 64, base_addr=0)
        p = PointerParam(name="p", runtime_object=obj, provenance=None)
        a = AddressExpr(p, AffineExpr.constant(0), 8)
        b = AddressExpr(p, AffineExpr.constant(8), 8)
        assert separation_verdict(a, b).label is AliasLabel.NO

    def test_tbaa_axiom_and_its_ablation(self):
        obj = MemObject("buf", 64, base_addr=0)
        a = AddressExpr(obj, AffineExpr.constant(0), 8, type_tag="int")
        b = AddressExpr(obj, AffineExpr.constant(0), 8, type_tag="float")
        assert separation_verdict(a, b).decided_by == "tbaa"
        # The axiom needs two tags: with one side untagged the same slot
        # is a MUST, decided over the offsets.
        untagged = AddressExpr(obj, AffineExpr.constant(0), 8)
        for x, y in ((a, untagged), (untagged, b)):
            assert separation_verdict(x, y).label is AliasLabel.MUST

    def test_interval_must_without_enumeration(self, set_enumeration_limit):
        obj = MemObject("buf", 64, base_addr=0)
        s = Sym("m", lo=0, hi=1)
        a = AddressExpr(obj, AffineExpr.of(syms={s: 1}), 8)
        b = AddressExpr(obj, AffineExpr.constant(0), 8)
        set_enumeration_limit(1)
        v = separation_verdict(a, b)
        assert v.label is AliasLabel.MUST and v.decided_by == "interval"


def _joint_truth(diff: AffineExpr, wlo: int, whi: int):
    """Brute-force ``(can, always)`` of *diff* against ``[wlo, whi]``."""
    names_domains = _variables(diff)
    can, always = False, True
    for values in itertools.product(*(d for _n, d in names_domains)):
        value = diff.evaluate(dict(zip((n for n, _d in names_domains), values)))
        if wlo <= value <= whi:
            can = True
        else:
            always = False
    return can, always


def _domain_size(diff: AffineExpr) -> int:
    return math.prod(len(d) for _n, d in _variables(diff))


class TestJointSweepPruning:
    """The pruned joint-domain sweep against ``itertools.product``.

    Larger domains than the footprint corpus above (trip counts 8-64,
    bounded symbols of mixed sign, windows from one byte to wider than
    the whole value span), so that both prune branches and the early
    exit decide real subtrees.
    """

    SEED = 5150
    CASES = 300

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(self.SEED)
        out = []
        while len(out) < self.CASES:
            ivs = {
                IVar(f"i{k}", rng.randint(8, 64)): rng.choice((-1, 1)) * rng.randint(1, 24)
                for k in range(rng.randint(1, 2))
            }
            syms = {}
            for k in range(rng.randint(0, 2)):
                lo = rng.randint(-12, 4)
                syms[Sym(f"s{k}", lo=lo, hi=lo + rng.randint(0, 12))] = (
                    rng.choice((-1, 1)) * rng.randint(1, 16)
                )
            diff = AffineExpr.of(const=rng.randint(-600, 600), ivs=ivs, syms=syms)
            if _domain_size(diff) > 20000:
                continue  # keep the brute force quick
            lo, hi = value_set(diff).lo, value_set(diff).hi
            span = hi - lo
            kind = rng.randrange(5)
            if kind == 4:  # edges within one of the span's ends
                wlo, whi = lo + rng.randint(-1, 1), hi + rng.randint(-1, 1)
            elif kind == 0:  # an access-sized window
                wlo, whi = -rng.randint(0, 8), rng.randint(0, 8)
            elif kind == 1:  # wider than the whole value span
                wlo = lo - rng.randint(0, 50)
                whi = hi + rng.randint(0, 50)
            elif kind == 2:  # a window cutting the span
                wlo = rng.randint(lo, hi)
                whi = wlo + rng.randint(0, span)
            else:  # clear of the span
                wlo = hi + rng.randint(1, 50)
                whi = wlo + rng.randint(0, 50)
            out.append((diff, wlo, whi))
        return out

    def test_matches_brute_force(self, cases):
        outcomes = set()
        for diff, wlo, whi in cases:
            got = _enumerate_joint(diff, wlo, whi, DEFAULT_ENUMERATION_LIMIT)
            assert got == _joint_truth(diff, wlo, whi), (diff, wlo, whi)
            outcomes.add(got)
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_every_shortcut_decides_real_subtrees(self, cases, sweep_calls):
        # For each outcome, some case was decided in fewer subtree visits
        # than the domain has points: the outside prune (NO), the inside
        # prune (MUST) and the early exit (MAY) all fire.
        short = set()
        for diff, wlo, whi in cases:
            got, calls = sweep_calls(
                _enumerate_joint, diff, wlo, whi, DEFAULT_ENUMERATION_LIMIT
            )
            if calls < _domain_size(diff):
                short.add(got)
        assert short == {(False, False), (True, False), (True, True)}

    def test_early_exit_stops_mid_dimension(self, sweep_calls):
        # -32 + i over 64 trips against [-7, 7]: i = 0 misses, i = 25 hits,
        # and the sweep stops there instead of visiting i = 26..63.
        diff = AffineExpr.of(const=-32, ivs={IVar("i", 64): 1})
        got, calls = sweep_calls(_enumerate_joint, diff, -7, 7, 1 << 16)
        assert got == (True, False)
        assert calls == 1 + 26

    @pytest.mark.parametrize(
        "const, expected", [(0, (True, True)), (10**6, (False, False))]
    )
    def test_full_size_domain_decided_without_sweep(self, const, expected, sweep_calls):
        # 256 x 256 = 65,536 points, exactly the enumeration limit; the
        # whole value span lies inside (or clear of) the window, so the
        # root's bounds decide it in one visit.
        diff = AffineExpr.of(
            const=const, ivs={IVar("i", 256): 3}, syms={Sym("s", lo=-128, hi=127): -2}
        )
        assert _domain_size(diff) == DEFAULT_ENUMERATION_LIMIT
        got, calls = sweep_calls(_enumerate_joint, diff, -2000, 2000, DEFAULT_ENUMERATION_LIMIT)
        assert got == expected
        assert calls == 1

    def test_limit_checked_before_sweeping(self, sweep_calls):
        # One point past the limit is refused whatever the bounds say.
        diff = AffineExpr.of(ivs={IVar("i", 256): 1}, syms={Sym("s", lo=0, hi=256): 1})
        got, calls = sweep_calls(_enumerate_joint, diff, -(10**6), 10**6, 256 * 256)
        assert got is None and calls == 0


class TestValueSet:
    def test_unbounded_interval_keeps_lattice(self):
        vs = value_set(AffineExpr.of(const=8, syms={Sym("u"): 16}))
        assert (vs.phase, vs.modulus, vs.lo, vs.hi) == (8, 16, None, None)

    def test_intersects_is_integer_exact(self):
        # Lattice -7 + 5Z against [0, 2]: nearest points are -2 and 3.
        assert not ValueSet(phase=-7, modulus=5, lo=None, hi=None).intersects(0, 2)
        assert ValueSet(phase=-7, modulus=5, lo=None, hi=None).intersects(0, 3)

    def test_bounds_clip_the_window(self):
        vs = ValueSet(phase=0, modulus=8, lo=0, hi=24)
        assert vs.intersects(16, 100)
        assert not vs.intersects(25, 100)


class TestOracleOnGraphs:
    def test_requires_memory_ops(self):
        b = RegionBuilder("r")
        x = b.input("x")
        obj = MemObject("o", 64, base_addr=0)
        b.store(obj, AffineExpr.constant(0), value=x, width=8)
        g = b.build()
        store_id = g.memory_ops[0].op_id
        with pytest.raises(ValueError):
            oracle_verdict(g, x.op_id, store_id)

    def test_refine_only_touches_symbolic_pairs(self):
        # A constant-offset MAY pair (two opaque params) must survive
        # stage 5 untouched, keeping stage-1..4 behavior bit-identical
        # for symbol-free regions.
        obj = MemObject("o", 4096, base_addr=0)
        p = PointerParam(name="p", runtime_object=obj, provenance=None)
        q = PointerParam(name="q", runtime_object=obj, provenance=None)
        s1 = Sym("s1", lo=0, hi=3)
        s2 = Sym("s2", lo=0, hi=3)
        b = RegionBuilder("r")
        x = b.input("x")
        b.store(p, AffineExpr.constant(0), value=x, width=8)
        b.store(q, AffineExpr.constant(64), value=x, width=8)
        b.store(obj, AffineExpr.of(const=512, syms={s1: 8}), value=x, width=8)
        b.store(obj, AffineExpr.of(const=1024, syms={s2: 8}), value=x, width=8)
        g = b.build()
        stage1 = analyze_stage1(g)
        stats = Stage5Stats()
        refined = refine_stage5(g, stage1, stats=stats)
        mem = [op.op_id for op in g.memory_ops]
        # The param pair stays MAY and is not even counted as symbolic.
        assert refined.get(mem[0], mem[1]) is AliasLabel.MAY
        # The two symbolic stores are 512 bytes apart: resolved NO.
        assert refined.get(mem[2], mem[3]) is AliasLabel.NO
        assert stats.symbolic_pairs >= 1
        assert stats.resolved_no >= 1
        assert stats.resolved == stats.resolved_no + stats.resolved_must
