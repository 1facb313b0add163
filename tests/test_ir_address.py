"""Unit tests for symbolic address expressions."""

import random

import pytest

from repro.ir.address import (
    AddressExpr,
    AffineExpr,
    IVar,
    MemObject,
    MemorySpace,
    PointerParam,
    Sym,
)


class TestMemObject:
    def test_basic_fields(self):
        obj = MemObject("arr", 4096, MemorySpace.HEAP, base_addr=0x1000)
        assert obj.name == "arr"
        assert obj.size == 4096
        assert not obj.is_local

    def test_uids_are_unique(self):
        a = MemObject("x", 64)
        b = MemObject("x", 64)
        assert a.uid != b.uid

    def test_contains(self):
        obj = MemObject("arr", 100, base_addr=1000)
        assert obj.contains(1000)
        assert obj.contains(1099)
        assert not obj.contains(1100)
        assert not obj.contains(999)

    def test_stack_objects_are_local(self):
        obj = MemObject("frame", 64, MemorySpace.STACK)
        assert obj.is_local

    def test_scratchpad_objects_are_local(self):
        obj = MemObject("spad", 64, MemorySpace.SCRATCHPAD)
        assert obj.is_local

    def test_global_objects_are_not_local(self):
        obj = MemObject("g", 64, MemorySpace.GLOBAL)
        assert not obj.is_local

    @pytest.mark.parametrize("size", [0, -1])
    def test_rejects_nonpositive_size(self, size):
        with pytest.raises(ValueError):
            MemObject("bad", size)

    def test_rejects_nonpositive_element_size(self):
        with pytest.raises(ValueError):
            MemObject("bad", 64, element_size=0)


class TestPointerParam:
    def test_provenance_defaults_to_unknown(self):
        obj = MemObject("t", 64)
        p = PointerParam("p", runtime_object=obj)
        assert p.provenance is None
        assert p.runtime_object is obj

    def test_distinct_uids(self):
        obj = MemObject("t", 64)
        assert PointerParam("p", obj).uid != PointerParam("p", obj).uid


class TestIVar:
    def test_domain(self):
        iv = IVar("i", 8)
        assert list(iv.domain) == list(range(8))

    def test_rejects_nonpositive_trip_count(self):
        with pytest.raises(ValueError):
            IVar("i", 0)


class TestAffineExpr:
    def test_constant(self):
        e = AffineExpr.constant(42)
        assert e.is_constant
        assert e.const == 42
        assert e.evaluate({}) == 42

    def test_of_drops_zero_coefficients(self):
        iv = IVar("i", 4)
        e = AffineExpr.of(const=1, ivs={iv: 0})
        assert e.is_constant

    def test_addition(self):
        iv = IVar("i", 4)
        a = AffineExpr.of(const=1, ivs={iv: 2})
        b = AffineExpr.of(const=3, ivs={iv: 5})
        c = a + b
        assert c.const == 4
        assert dict(c.iv_terms)[iv] == 7

    def test_subtraction_cancels(self):
        iv = IVar("i", 4)
        a = AffineExpr.of(const=5, ivs={iv: 2})
        b = AffineExpr.of(const=1, ivs={iv: 2})
        c = a - b
        assert c.is_constant
        assert c.const == 4

    def test_scaled(self):
        iv = IVar("i", 4)
        e = AffineExpr.of(const=3, ivs={iv: 2}).scaled(4)
        assert e.const == 12
        assert dict(e.iv_terms)[iv] == 8

    def test_sym_terms_flagged(self):
        s = Sym("s")
        e = AffineExpr.of(syms={s: 8})
        assert e.has_syms
        assert not e.is_single_iv

    def test_single_iv_classification(self):
        i, j = IVar("i", 4), IVar("j", 4)
        assert AffineExpr.of(ivs={i: 8}).is_single_iv
        assert AffineExpr.constant(0).is_single_iv
        assert not AffineExpr.of(ivs={i: 8, j: 8}).is_single_iv

    def test_bounds_positive_coeff(self):
        iv = IVar("i", 10)
        lo, hi = AffineExpr.of(const=5, ivs={iv: 4}).bounds()
        assert (lo, hi) == (5, 5 + 4 * 9)

    def test_bounds_negative_coeff(self):
        iv = IVar("i", 10)
        lo, hi = AffineExpr.of(const=5, ivs={iv: -4}).bounds()
        assert (lo, hi) == (5 - 36, 5)

    def test_bounds_multi_iv(self):
        i, j = IVar("i", 3), IVar("j", 5)
        lo, hi = AffineExpr.of(ivs={i: 10, j: -2}).bounds()
        assert (lo, hi) == (-8, 20)

    def test_bounds_rejects_syms(self):
        s = Sym("s")
        with pytest.raises(ValueError):
            AffineExpr.of(syms={s: 1}).bounds()

    def test_evaluate(self):
        iv, s = IVar("i", 8), Sym("s")
        e = AffineExpr.of(const=1, ivs={iv: 8}, syms={s: 2})
        assert e.evaluate({"i": 3, "s": 5}) == 1 + 24 + 10

    def test_equality_is_structural(self):
        iv = IVar("i", 8)
        assert AffineExpr.of(const=1, ivs={iv: 8}) == AffineExpr.of(const=1, ivs={iv: 8})

    def test_combine_matches_term_merge(self):
        # Sums and differences equal a dict merge re-normalised by ``of``,
        # term order included, for every operand shape (the one-IV
        # shapes take a direct path).
        rng = random.Random(210)
        ivs = [IVar("a", 4), IVar("b", 8), IVar("b", 3), IVar("c", 2)]
        syms = [Sym("s"), Sym("t", lo=0, hi=3)]

        def expr():
            return AffineExpr.of(
                const=rng.randint(-9, 9),
                ivs={rng.choice(ivs): rng.randint(-3, 3) for _ in range(rng.randint(0, 2))},
                syms={rng.choice(syms): rng.randint(-3, 3) for _ in range(rng.choice((0, 0, 1)))},
            )

        for _ in range(3000):
            x, y = expr(), expr()
            for sign, got in ((1, x + y), (-1, x - y)):
                merged_ivs = dict(x.iv_terms)
                for iv, c in y.iv_terms:
                    merged_ivs[iv] = merged_ivs.get(iv, 0) + sign * c
                merged_syms = dict(x.sym_terms)
                for s, c in y.sym_terms:
                    merged_syms[s] = merged_syms.get(s, 0) + sign * c
                want = AffineExpr.of(x.const + sign * y.const, merged_ivs, merged_syms)
                assert got == want and got.iv_terms == want.iv_terms, (x, y, sign)


class TestAddressExpr:
    def test_runtime_base_for_object(self):
        obj = MemObject("a", 64, base_addr=100)
        addr = AddressExpr(obj, AffineExpr.constant(8))
        assert addr.runtime_base is obj
        assert addr.static_base is obj
        assert addr.interprocedural_base is obj

    def test_runtime_base_for_param(self):
        target = MemObject("t", 64, base_addr=100)
        p = PointerParam("p", runtime_object=target, provenance=None)
        addr = AddressExpr(p, AffineExpr.constant(0))
        assert addr.runtime_base is target
        assert addr.static_base is None
        assert addr.interprocedural_base is None

    def test_interprocedural_base_uses_provenance(self):
        target = MemObject("t", 64)
        p = PointerParam("p", runtime_object=target, provenance=target)
        addr = AddressExpr(p, AffineExpr.constant(0))
        assert addr.static_base is None
        assert addr.interprocedural_base is target

    def test_evaluate_concrete_address(self):
        obj = MemObject("a", 1024, base_addr=0x1000)
        iv = IVar("i", 16)
        addr = AddressExpr(obj, AffineExpr.of(const=8, ivs={iv: 16}))
        assert addr.evaluate({"i": 2}) == 0x1000 + 8 + 32

    def test_rejects_nonpositive_width(self):
        obj = MemObject("a", 64)
        with pytest.raises(ValueError):
            AddressExpr(obj, AffineExpr.constant(0), width=0)
