"""The MDE sync-coverage checker: clean on honest compilations, and a
static tripwire for the enforcement bugs the dynamic layer only catches
by executing — re-introducing PR 3's unsound stage-3 pruning and
hand-dropping an MDE must both surface as *located* uncovered pairs.
Also pins the three-way agreement between the shared publish-ordering
predicate's consumers (stage-3 pruning, the static verifier's
reachability, the coverage checker)."""

from __future__ import annotations

import pytest

from repro.compiler import (
    AliasPipeline,
    check_sync_coverage,
    compile_region,
    edge_guarantees_order,
    guaranteed_reachability,
    is_forward_candidate,
    relation_guarantees_order,
    required_pairs,
)
from repro.compiler.labels import AliasLabel, PairKind
from repro.ir import AffineExpr, MemObject, RegionBuilder, Sym
from repro.ir.graph import MDEKind
from repro.verify.fuzz import build_graph, generate_spec


def _arr():
    return MemObject("a", 8192, base_addr=0x1000)


def may_region():
    a = _arr()
    b = RegionBuilder("may")
    x = b.input("x")
    b.store(a, AffineExpr.of(syms={Sym("s1"): 8}), value=x, width=8)
    b.load(a, AffineExpr.of(syms={Sym("s2"): 4}), width=4)
    return b.build()


def forward_chain_region():
    """PR 3's witness: a FORWARD edge mistaken for publish-ordering."""
    a = _arr()
    b = RegionBuilder("fwd-chain-straddle")
    x = b.input("x")
    b.load(a, AffineExpr.constant(64))
    b.store(a, AffineExpr.constant(60), value=x)
    ld = b.load(a, AffineExpr.constant(60))
    v = b.add(ld, b.const(1))
    b.store(a, AffineExpr.constant(64), value=v, width=2)
    return b.build()


class TestCleanOnHonestCompilations:
    def test_directed_regions(self):
        for build in (may_region, forward_chain_region):
            graph = build()
            compile_region(graph)
            report = check_sync_coverage(graph)
            assert report.ok, report.describe()
            assert report.covered == report.required

    def test_fuzzed_regions(self):
        # A sweep of adversarial fuzz regions: whatever enforcement the
        # pipeline installs must cover the oracle's required set.
        for k in range(40):
            graph = build_graph(generate_spec(99, k))
            compile_region(graph)
            report = check_sync_coverage(graph)
            assert report.ok, f"region {k}: {report.describe()}"

    def test_edge_tuple_form_matches_installed_edges(self):
        """``check_sync_coverage(graph, mdes)`` on a pristine graph reads
        the compile's edge tuple exactly as the one-argument form reads
        the same edges installed on a copy."""
        for k in range(20):
            graph = build_graph(generate_spec(5, k))
            mdes = tuple(AliasPipeline().run(graph, apply_mdes=False).mdes)
            assert not graph.mdes
            installed = graph.clone()
            installed.replace_mdes(mdes)
            assert guaranteed_reachability(graph, mdes) == (
                guaranteed_reachability(installed)
            )
            tuple_form = check_sync_coverage(graph, mdes)
            assert tuple_form.ok, tuple_form.describe()
            assert tuple_form == check_sync_coverage(installed)

    def test_required_set_is_oracle_defined(self):
        graph = may_region()
        compile_region(graph)
        req = required_pairs(graph)
        # Both symbolic ops share the array: the ST-LD pair is required.
        assert [(older, younger, kind) for older, younger, kind, _v in req] == [
            (graph.memory_ops[0].op_id, graph.memory_ops[1].op_id, PairKind.ST_LD)
        ]
        assert req[0][3].label is not AliasLabel.NO


class TestMutationUnsoundStage3Pruning:
    def test_caught_as_located_gap(self):
        """Re-apply PR 3's bug (exact ST->LD forwarding relations treated
        as publish-ordering during pruning) — the coverage checker must
        flag it statically, before anything executes."""
        import repro.compiler.aliasing.stage3 as stage3
        import repro.compiler.pipeline as pipeline_mod

        orig = stage3.prune_stage3

        def unsound(graph, matrix, keep_st_ld_forwarding=True, exact_pairs=None):
            return orig(graph, matrix, keep_st_ld_forwarding, exact_pairs=None)

        pipeline_mod.prune_stage3 = unsound
        try:
            graph = forward_chain_region()
            AliasPipeline().run(graph)
            report = check_sync_coverage(graph)
        finally:
            pipeline_mod.prune_stage3 = orig

        assert not report.ok
        mem = [op.op_id for op in graph.memory_ops]
        straddling_store, trailing_store = mem[1], mem[3]
        assert (straddling_store, trailing_store) in [
            (g.older, g.younger) for g in report.gaps
        ]
        gap = next(g for g in report.gaps if g.older == straddling_store)
        # The finding is located: it names both ops and their addresses.
        msg = str(gap)
        assert f"st#{straddling_store}" in msg
        assert f"st#{trailing_store}" in msg
        assert "must happen before" in msg

    def test_sound_pruning_is_clean(self):
        graph = forward_chain_region()
        AliasPipeline().run(graph)
        assert check_sync_coverage(graph).ok


class TestMutationDroppedMDE:
    def test_hand_dropped_mde_caught(self):
        """Simulate an MDE-insertion bug by leaving one installed MAY
        edge out of the tuple: its pair loses its only enforcement and
        must surface."""
        graph = may_region()
        result = compile_region(graph)
        edge = next(e for e in result.mdes if e.kind is MDEKind.MAY)
        report = check_sync_coverage(
            graph, tuple(e for e in graph.mdes if e is not edge)
        )
        assert not report.ok
        assert [(g.older, g.younger) for g in report.gaps] == [(edge.src, edge.dst)]
        assert "uncovered" in str(report.gaps[0])
        # The graph itself is untouched and still checks clean.
        assert check_sync_coverage(graph).ok

    def test_dropping_a_redundant_edge_is_clean(self):
        """An ORDER edge whose pair is also covered transitively may be
        dropped without a gap — coverage is about pairs, not edges."""
        a = _arr()
        b = RegionBuilder("chain")
        x = b.input("x")
        b.store(a, AffineExpr.constant(0), value=x, width=8)
        b.store(a, AffineExpr.constant(4), value=x, width=8)
        b.store(a, AffineExpr.constant(0), value=x, width=8)
        graph = b.build()
        compile_region(graph)
        mem = [op.op_id for op in graph.memory_ops]
        # (st0, st2) is ordered through st1 by the retained ORDER chain,
        # so dropping a direct (st0, st2) edge (if any) changes nothing.
        report = check_sync_coverage(
            graph,
            tuple(e for e in graph.mdes if (e.src, e.dst) != (mem[0], mem[2])),
        )
        assert report.ok, report.describe()


class TestOrderingPredicateAgreement:
    """One publish-semantics rule, three consumers, zero drift."""

    def test_structural_sharing(self):
        # The rule lives in repro.compiler.ordering and every consumer
        # imports it — not a local re-implementation that can drift.
        import repro.compiler.aliasing.stage3 as stage3
        import repro.compiler.coverage as coverage
        import repro.compiler.ordering as ordering
        import repro.compiler.verify as verify

        assert stage3.relation_guarantees_order is ordering.relation_guarantees_order
        assert verify.edge_guarantees_order is ordering.edge_guarantees_order
        assert coverage.guaranteed_reachability is verify.guaranteed_reachability

    def test_forward_never_orders_anywhere(self):
        # Relation level: an exact ST->LD MUST is a forwarding candidate,
        # not an ordering guarantee.  Edge level: FORWARD MDEs never
        # extend reachability chains.
        exact = {(0, 1)}
        assert is_forward_candidate(PairKind.ST_LD, 0, 1, exact)
        assert not relation_guarantees_order(
            AliasLabel.MUST, PairKind.ST_LD, 0, 1, exact
        )
        assert relation_guarantees_order(AliasLabel.MUST, PairKind.ST_LD, 0, 2, exact)
        assert relation_guarantees_order(AliasLabel.MUST, PairKind.ST_ST, 0, 1, exact)
        for kind in (AliasLabel.MAY, AliasLabel.NO):
            assert not relation_guarantees_order(kind, PairKind.ST_ST, 0, 1, exact)
        assert edge_guarantees_order(MDEKind.ORDER)
        assert not edge_guarantees_order(MDEKind.FORWARD)
        assert not edge_guarantees_order(MDEKind.MAY)

    def test_three_consumers_agree_on_regions(self):
        # On compiled regions: every pair stage 3 prunes (covered
        # transitively) is also covered for the checker, and the
        # verifier's reachability is the checker's.
        for k in range(15):
            graph = build_graph(generate_spec(31, k))
            result = compile_region(graph)
            reach = guaranteed_reachability(graph)
            own = {(e.src, e.dst) for e in graph.mdes}
            retained = {(r.older, r.younger) for r in result.plan.retained}
            for (older, younger), label in result.final_labels:
                if label is AliasLabel.NO or (older, younger) in retained:
                    continue  # pruned by stage 3: must be covered anyway
                assert reach.reaches(older, younger) or (older, younger) in own, (
                    k, older, younger, label,
                )


class TestEveryCompileCertified:
    """``common.compile_workload`` checks the coverage of each fresh
    compile before anything runs or is cached."""

    def test_dropped_may_edge_fails_the_task_uncached(self, fresh_store, monkeypatch):
        import repro.compiler.pipeline as pipeline
        from repro.compiler import CoverageError
        from repro.experiments import common
        from repro.obs.runner import resolve_workload
        from repro.runtime import cache as cache_module

        insert_mdes = pipeline.insert_mdes

        def drop_first_may(*args, **kwargs):
            mdes = insert_mdes(*args, **kwargs)
            may = [e for e in mdes if e.kind is MDEKind.MAY]
            return [e for e in mdes if e not in may[:1]]

        def no_engine(*_args, **_kwargs):
            raise AssertionError("an engine ran on an uncertified compile")

        fresh_store()
        monkeypatch.setattr(pipeline, "insert_mdes", drop_first_may)
        monkeypatch.setattr(common, "make_engine", no_engine)
        workload = resolve_workload("bzip2")
        with pytest.raises(CoverageError, match=r"uncovered MAY st-st pair: st#29"):
            common.run_system(workload, "nachos", invocations=3)
        root = cache_module.get_cache().root
        assert [p for p in root.rglob("*") if p.is_file()] == []

        monkeypatch.undo()
        fresh_store()
        run = common.run_system(workload, "nachos", invocations=3)
        assert run.correct
