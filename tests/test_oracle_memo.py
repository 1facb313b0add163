"""The stage-5 oracle's per-graph state and the offset term memo.

The oracle hangs one state per region graph on ``DFGraph._oracle``: a
row per memory op and a memo of :func:`separation_verdict` per (shapes,
constant difference, widths) key.  Stage 5 reads verdicts through it
(:func:`pair_verdict`) and the coverage check through
:func:`region_verdicts`, so the state must follow the op table and the
enumeration bound, never be pickled, and leave nothing behind that a
later reader would see differently from a fresh graph.
``AffineExpr`` differences memoize their term part
(:func:`repro.ir.address._combine_terms`); they must equal the merged
term dicts they replace, and the memo must stay bounded.
"""

from __future__ import annotations

import pickle
import random
from typing import List

import pytest

from repro.compiler.aliasing.stage5 import oracle_verdict, pair_verdict, region_verdicts
from repro.compiler.aliasing.symbolic import DEFAULT_ENUMERATION_LIMIT
from repro.compiler.pipeline import AliasPipeline, PipelineConfig
from repro.ir import (
    AddressExpr,
    AffineExpr,
    IVar,
    MemObject,
    Opcode,
    Operation,
    RegionBuilder,
    Sym,
    address,
)
from repro.ir.graph import DFGraph
from repro.verify.fuzz import build_graph, generate_spec
from repro.workloads.suite import build_suite_workloads

ARR = MemObject("arr", 4096)
I = IVar("i", 16)


def _region() -> DFGraph:
    """A store and a load two elements apart, by a bounded symbol."""
    s = Sym("s", 0, 3)
    b = RegionBuilder("memo")
    x = b.input("x")
    b.store(ARR, AffineExpr.of(ivs={I: 8}, syms={s: 16}), value=x)
    b.load(ARR, AffineExpr.of(const=32, ivs={I: 8}))
    return b.build()


class TestLifecycle:
    def test_late_add_op_is_seen(self):
        graph = _region()
        before = region_verdicts(graph)
        assert len(before) == 1
        next_id = max(op.op_id for op in graph.ops) + 1
        graph.add_op(Operation(
            next_id, Opcode.STORE, inputs=(0,),
            addr=AddressExpr(ARR, AffineExpr.of(const=32, ivs={I: 8})),
        ))
        after = region_verdicts(graph)
        assert len(after) == 3
        for (older, younger), verdict in after.items():
            assert verdict == oracle_verdict(graph, older, younger)
            assert pair_verdict(graph, older, younger) == verdict
        load = graph.loads[0].op_id
        assert after[(load, next_id)].exact

    def test_pickle_bytes_do_not_depend_on_queries(self):
        graph = _region()
        fresh = pickle.dumps(graph)
        region_verdicts(graph)
        assert graph._oracle is not None
        assert pickle.dumps(graph) == fresh
        AliasPipeline(PipelineConfig.full()).run(graph, apply_mdes=False)
        assert pickle.dumps(graph) == fresh
        restored = pickle.loads(fresh)
        assert "_oracle" not in restored.__dict__
        assert region_verdicts(restored) == region_verdicts(graph)

    def test_clone_starts_without_oracle_state(self):
        graph = _region()
        region_verdicts(graph)
        assert graph.clone()._oracle is None

    def test_changed_enumeration_limit_rebuilds(self, set_enumeration_limit):
        """The bounded symbol's pair is decided by enumeration at the
        default bound and falls back to the lattice/interval test at a
        bound of 1; the memo must not serve the first verdict under the
        second bound."""
        graph = _region()
        pair = tuple(op.op_id for op in graph.memory_ops)
        assert region_verdicts(graph)[pair].decided_by == "enumeration"
        state = graph._oracle
        set_enumeration_limit(1)
        assert graph._oracle is state
        narrow = region_verdicts(graph)[pair]
        assert graph._oracle is not state
        assert narrow.decided_by != "enumeration"
        assert narrow == oracle_verdict(graph, *pair)
        assert pair_verdict(graph, *pair) == narrow
        set_enumeration_limit(DEFAULT_ENUMERATION_LIMIT)
        assert pair_verdict(graph, *pair).decided_by == "enumeration"


@pytest.fixture(scope="module")
def corpus() -> List[DFGraph]:
    suite = [w.graph for w in build_suite_workloads(5)]
    assert len(suite) == 135
    return suite + [build_graph(generate_spec(0, k)) for k in range(300)]


def test_compile_leaves_nothing_coverage_sees_differently(corpus):
    """After a full compile (stage 5 filled the memo) every verdict the
    coverage check reads equals the one a never-compiled clone gives.
    Stage 5 builds the state only for a region with a symbolic MAY pair
    left after stage 4."""
    filled = 0
    for original in corpus:
        compiled = original.clone()
        AliasPipeline(PipelineConfig.full()).run(compiled)
        filled += compiled._oracle is not None
        fresh = original.clone()
        assert fresh._oracle is None
        expected = region_verdicts(fresh)
        assert list(region_verdicts(compiled).items()) == list(expected.items())
        for (older, younger), verdict in expected.items():
            assert pair_verdict(compiled, older, younger) is verdict
    assert filled > 100


def test_stage5_reads_but_leaves_rows_unchanged():
    graph = _region()
    region_verdicts(graph)
    state = graph._oracle
    rows = list(state.rows)
    AliasPipeline(PipelineConfig.full()).run(graph, apply_mdes=False)
    assert graph._oracle is state and state.rows == rows


# ----------------------------------------------------------------------
# The term memo of AffineExpr differences
# ----------------------------------------------------------------------
IVS = [IVar("i", 16), IVar("j", 4), IVar("k", 7), IVar("a", 3)]
SYMS = [Sym("s"), Sym("t"), Sym("u", 0, 5), Sym("v", -2, 9)]


def _random_offset(rng: random.Random) -> AffineExpr:
    ivs = {iv: rng.choice((-8, -1, 1, 2, 8, 16))
           for iv in rng.sample(IVS, rng.randint(0, 3))}
    syms = {s: rng.choice((-4, 1, 8, 16))
            for s in rng.sample(SYMS, rng.randint(0, 2))}
    return AffineExpr.of(rng.randint(-64, 64), ivs, syms)


def _reference(a: AffineExpr, b: AffineExpr, sign: int) -> AffineExpr:
    ivs = dict(a.iv_terms)
    for iv, c in b.iv_terms:
        ivs[iv] = ivs.get(iv, 0) + sign * c
    syms = dict(a.sym_terms)
    for s, c in b.sym_terms:
        syms[s] = syms.get(s, 0) + sign * c
    return AffineExpr.of(a.const + sign * b.const, ivs, syms)


def test_term_memo_matches_merged_term_dicts():
    rng = random.Random(7)
    offsets = [_random_offset(rng) for _ in range(200)]
    # Cancelling terms: the same terms with another constant, and each
    # offset negated.
    offsets += [AffineExpr(o.iv_terms, o.sym_terms, o.const + 8) for o in offsets[:20]]
    offsets += [o.scaled(-1) for o in offsets[:20]]
    for _ in range(3000):
        a, b = rng.choice(offsets), rng.choice(offsets)
        assert a - b == _reference(a, b, -1)
        assert a + b == _reference(a, b, +1)
    for o in offsets[:20]:
        assert (o - o).is_constant and (o - o).const == 0
        assert (o + o.scaled(-1)).is_constant


def test_term_memo_is_bounded():
    info = address._combine_terms.cache_info()
    assert info.maxsize == address.COMBINE_MEMO_SIZE
    assert 0 < info.maxsize < 1 << 16
