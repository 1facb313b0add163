"""Unit tests for the four alias-analysis stages."""

import pytest

from repro.compiler.aliasing import (
    analyze_stage1,
    prune_stage3,
    refine_stage2,
    refine_stage4,
)
from repro.compiler.aliasing.stage3 import retain_all
from repro.compiler.labels import AliasLabel, AliasMatrix, PairKind, pair_kind
from repro.ir import (
    AffineExpr,
    IVar,
    MemObject,
    PointerParam,
    RegionBuilder,
)


def region_two_objects():
    """st a[8i]; ld b[8i] — provably distinct objects."""
    a = MemObject("a", 4096, base_addr=0x1000)
    bo = MemObject("b", 4096, base_addr=0x8000)
    iv = IVar("i", 32)
    b = RegionBuilder()
    x = b.input("x")
    st = b.store(a, AffineExpr.of(ivs={iv: 8}), value=x)
    ld = b.load(bo, AffineExpr.of(ivs={iv: 8}))
    return b.build(), st, ld


def region_params(prov_a=None, prov_b=None, same_target=False):
    ta = MemObject("ta", 4096, base_addr=0x1000)
    tb = ta if same_target else MemObject("tb", 4096, base_addr=0x8000)
    p = PointerParam("p", runtime_object=ta, provenance=prov_a)
    q = PointerParam("q", runtime_object=tb, provenance=prov_b)
    iv = IVar("i", 32)
    b = RegionBuilder()
    x = b.input("x")
    st = b.store(p, AffineExpr.of(ivs={iv: 8}), value=x)
    ld = b.load(q, AffineExpr.of(ivs={iv: 8}))
    return b.build(), st, ld, ta, tb


class TestLabelsMatrix:
    def test_universe_excludes_ld_ld(self):
        a = MemObject("a", 4096)
        iv = IVar("i", 8)
        b = RegionBuilder()
        b.load(a, AffineExpr.of(ivs={iv: 8}))
        b.load(a, AffineExpr.of(const=8, ivs={iv: 8}))
        g = b.build()
        assert AliasMatrix.universe(g).total == 0

    def test_universe_counts_all_store_pairs(self, may_region):
        m = AliasMatrix.universe(may_region)
        # 2 stores, 2 loads: st-st 1, st-ld ordered pairs, ld-st pairs.
        mem = may_region.memory_ops
        expected = 0
        for i, older in enumerate(mem):
            for younger in mem[i + 1 :]:
                if pair_kind(older, younger) is not None:
                    expected += 1
        assert m.total == expected

    def test_set_unknown_pair_raises(self, may_region):
        m = AliasMatrix.universe(may_region)
        with pytest.raises(KeyError):
            m.set(999, 1000, AliasLabel.NO)

    def test_counts_and_fraction(self, may_region):
        m = AliasMatrix.universe(may_region)
        assert m.count(AliasLabel.MAY) == m.total
        assert m.fraction(AliasLabel.MAY) == 1.0
        counts = m.counts()
        assert counts[AliasLabel.MAY] == m.total

    def test_copy_is_independent(self, may_region):
        m = AliasMatrix.universe(may_region)
        c = m.copy()
        pair = c.pairs()[0]
        c.set(*pair, AliasLabel.NO)
        assert m.get(*pair) is AliasLabel.MAY


class TestStage1:
    def test_distinct_objects_no(self):
        g, st, ld = region_two_objects()
        m = analyze_stage1(g)
        assert m.get(st.op_id, ld.op_id) is AliasLabel.NO

    def test_same_object_same_offset_must_exact(self):
        a = MemObject("a", 4096)
        iv = IVar("i", 16)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.of(ivs={iv: 8}), value=x)
        ld = b.load(a, AffineExpr.of(ivs={iv: 8}))
        g = b.build()
        exact = set()
        m = analyze_stage1(g, exact_pairs=exact)
        assert m.get(st.op_id, ld.op_id) is AliasLabel.MUST
        assert (st.op_id, ld.op_id) in exact

    def test_opaque_params_are_may(self):
        g, st, ld, *_ = region_params()
        m = analyze_stage1(g)
        assert m.get(st.op_id, ld.op_id) is AliasLabel.MAY

    def test_same_param_offsets_decide(self):
        target = MemObject("t", 4096)
        p = PointerParam("p", runtime_object=target)
        iv = IVar("i", 16)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(p, AffineExpr.of(ivs={iv: 16}), value=x)
        ld = b.load(p, AffineExpr.of(const=8, ivs={iv: 16}))
        g = b.build()
        m = analyze_stage1(g)
        assert m.get(st.op_id, ld.op_id) is AliasLabel.NO

    def test_tbaa_disjoint_types(self):
        target = MemObject("t", 4096)
        p = PointerParam("p", runtime_object=target)
        q = PointerParam("q", runtime_object=target)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(p, AffineExpr.constant(0), value=x, type_tag="double")
        ld = b.load(q, AffineExpr.constant(0), type_tag="int32")
        g = b.build()
        assert analyze_stage1(g).get(st.op_id, ld.op_id) is AliasLabel.NO

    def test_tbaa_needs_both_tags(self):
        """An untagged access is not separated from a tagged one: the
        opaque-pointer pair of ``test_tbaa_disjoint_types`` stays MAY."""
        target = MemObject("t", 4096)
        p = PointerParam("p", runtime_object=target)
        q = PointerParam("q", runtime_object=target)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(p, AffineExpr.constant(0), value=x, type_tag="double")
        ld = b.load(q, AffineExpr.constant(0))
        g = b.build()
        assert analyze_stage1(g).get(st.op_id, ld.op_id) is AliasLabel.MAY

    def test_multidim_stays_may_at_stage1(self):
        a = MemObject("a", 1 << 16)
        i, j = IVar("i", 16), IVar("j", 16)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.of(const=8192, ivs={i: 8}), value=x)
        ld = b.load(a, AffineExpr.of(ivs={j: 8}))
        g = b.build()
        assert analyze_stage1(g).get(st.op_id, ld.op_id) is AliasLabel.MAY


class TestStage2:
    def test_resolves_distinct_provenance(self):
        ta = MemObject("ta", 4096)
        tb = MemObject("tb", 4096, base_addr=0x8000)
        g, st, ld, *_ = region_params(prov_a=None, prov_b=None)
        # rebuild with provenance set
        p = PointerParam("p", runtime_object=ta, provenance=ta)
        q = PointerParam("q", runtime_object=tb, provenance=tb)
        iv = IVar("i", 32)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(p, AffineExpr.of(ivs={iv: 8}), value=x)
        ld = b.load(q, AffineExpr.of(ivs={iv: 8}))
        g = b.build()
        m1 = analyze_stage1(g)
        assert m1.get(st.op_id, ld.op_id) is AliasLabel.MAY
        m2 = refine_stage2(g, m1)
        assert m2.get(st.op_id, ld.op_id) is AliasLabel.NO

    def test_same_provenance_compares_offsets(self):
        t = MemObject("t", 4096)
        p = PointerParam("p", runtime_object=t, provenance=t)
        q = PointerParam("q", runtime_object=t, provenance=t)
        iv = IVar("i", 16)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(p, AffineExpr.of(ivs={iv: 16}), value=x)
        ld = b.load(q, AffineExpr.of(ivs={iv: 16}))
        g = b.build()
        m2 = refine_stage2(g, analyze_stage1(g))
        assert m2.get(st.op_id, ld.op_id) is AliasLabel.MUST

    def test_lost_provenance_stays_may(self):
        g, st, ld, *_ = region_params(prov_a=None, prov_b=None)
        m2 = refine_stage2(g, analyze_stage1(g))
        assert m2.get(st.op_id, ld.op_id) is AliasLabel.MAY

    def test_monotone_only_may_changes(self, may_region):
        m1 = analyze_stage1(may_region)
        m2 = refine_stage2(may_region, m1)
        for pair, label in m1:
            if label is not AliasLabel.MAY:
                assert m2.get(*pair) is label


class TestStage3:
    def test_data_dependent_pair_pruned(self):
        # ld a[8i] -> add -> st a[8i]: LD->ST MUST ordered by data dep.
        a = MemObject("a", 4096)
        iv = IVar("i", 16)
        b = RegionBuilder()
        c = b.const(1)
        ld = b.load(a, AffineExpr.of(ivs={iv: 8}))
        s = b.add(ld, c)
        st = b.store(a, AffineExpr.of(ivs={iv: 8}), value=s)
        g = b.build()
        plan = prune_stage3(g, analyze_stage1(g))
        assert plan.removed_must == 1
        assert plan.retained == []

    def test_independent_pair_retained(self):
        a = MemObject("a", 4096)
        iv = IVar("i", 16)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.of(ivs={iv: 8}), value=x)
        ld = b.load(a, AffineExpr.of(ivs={iv: 8}))
        g = b.build()
        plan = prune_stage3(g, analyze_stage1(g))
        assert len(plan.retained) == 1
        assert plan.retained[0].kind is PairKind.ST_LD

    def test_st_ld_forwarding_kept_even_if_redundant(self):
        # st a[c] (value x); ld a[c] whose address gep depends on the store?
        # Build: st; compute consuming store is impossible (stores have no
        # users), so make the load data-reachable via an MDE-irrelevant
        # path is impossible too; instead check the flag is honored by
        # passing keep_st_ld_forwarding=False on a plain pair.
        a = MemObject("a", 4096)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.constant(0), value=x)
        ld = b.load(a, AffineExpr.constant(0))
        g = b.build()
        plan = prune_stage3(g, analyze_stage1(g), keep_st_ld_forwarding=False)
        assert len(plan.retained) == 1  # not reachable anyway

    def test_may_edges_do_not_justify_pruning(self):
        """Transitive pruning through MAY edges is unsound under NACHOS."""
        t1 = MemObject("t1", 4096, base_addr=0x1000)
        t2 = MemObject("t2", 4096, base_addr=0x2000)
        t3 = MemObject("t3", 4096, base_addr=0x3000)
        p1 = PointerParam("p1", runtime_object=t1)
        p2 = PointerParam("p2", runtime_object=t2)
        p3 = PointerParam("p3", runtime_object=t3)
        b = RegionBuilder()
        x = b.input("x")
        s1 = b.store(p1, AffineExpr.constant(0), value=x)
        s2 = b.store(p2, AffineExpr.constant(0), value=x)
        s3 = b.store(p3, AffineExpr.constant(0), value=x)
        g = b.build()
        plan = prune_stage3(g, analyze_stage1(g))
        # All three MAY pairs retained: (1,2) and (2,3) do not order (1,3).
        assert len(plan.retained_may) == 3

    def test_must_edges_do_justify_pruning(self):
        a = MemObject("a", 4096)
        b = RegionBuilder()
        x = b.input("x")
        s1 = b.store(a, AffineExpr.constant(0), value=x)
        s2 = b.store(a, AffineExpr.constant(0), value=x)
        s3 = b.store(a, AffineExpr.constant(0), value=x)
        g = b.build()
        plan = prune_stage3(g, analyze_stage1(g))
        # MUST(1,2) + MUST(2,3) imply MUST(1,3): 2 retained, 1 removed.
        assert len(plan.retained_must) == 2
        assert plan.removed_must == 1

    def test_retain_all_fallback(self, may_region):
        m = analyze_stage1(may_region)
        plan = retain_all(may_region, m)
        enforceable = m.count(AliasLabel.MAY) + m.count(AliasLabel.MUST)
        assert len(plan.retained) == enforceable
        assert plan.removed == 0


class TestStage4:
    def test_resolves_disjoint_multidim_blocks(self):
        a = MemObject("a", 1 << 16)
        i, j = IVar("i", 16), IVar("j", 16)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.of(const=8192, ivs={i: 8}), value=x)
        ld = b.load(a, AffineExpr.of(ivs={j: 8}))
        g = b.build()
        m1 = analyze_stage1(g)
        assert m1.get(st.op_id, ld.op_id) is AliasLabel.MAY
        m4 = refine_stage4(g, m1)
        assert m4.get(st.op_id, ld.op_id) is AliasLabel.NO

    def test_leaves_sym_accesses_may(self):
        from repro.ir.address import Sym

        a = MemObject("a", 4096)
        s = Sym("s")
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.of(syms={s: 8}), value=x)
        ld = b.load(a, AffineExpr.constant(0))
        g = b.build()
        m4 = refine_stage4(g, analyze_stage1(g))
        assert m4.get(st.op_id, ld.op_id) is AliasLabel.MAY

    def test_resolves_base_via_provenance(self):
        ta = MemObject("ta", 4096)
        tb = MemObject("tb", 4096, base_addr=0x9000)
        p = PointerParam("p", runtime_object=ta, provenance=ta)
        q = PointerParam("q", runtime_object=tb, provenance=tb)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(p, AffineExpr.constant(0), value=x)
        ld = b.load(q, AffineExpr.constant(0))
        g = b.build()
        m4 = refine_stage4(g, analyze_stage1(g))
        assert m4.get(st.op_id, ld.op_id) is AliasLabel.NO
