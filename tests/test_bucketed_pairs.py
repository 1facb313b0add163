"""Bucketed pair classification equals the per-pair rules it replaces.

Stage 1 (:func:`analyze_stage1`), stages 2 and 4 (:func:`refine_stage2`,
:func:`refine_stage4`) and the oracle's region walk
(:func:`region_verdicts`, which :func:`required_pairs` and the fuzzer
read) settle most pairs by their rows' keys — TBAA tag, base or
heaplet, offset shape — instead of one offset difference per pair.
Each must agree with its per-pair reference on every pair: stage 1 with
``_classify`` (labels and ``exact_pairs``), stages 2 and 4 with the
per-pair provenance and ``compare_offsets`` rules kept below (labels and
``exact_pairs``, stage 4 both after stage 2 and with stage 2 off), the
oracle with :func:`oracle_verdict` (whole verdict objects).  The corpus is every
``build_suite_workloads(5)`` region, 1,000 fuzzer regions and a few
hand-built boundary cases, at the default enumeration limit and at 4
(the compiler's bound is a constant, so the tests patch it).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import pytest

from repro.compiler.aliasing.stage1 import _classify, analyze_stage1
from repro.compiler.aliasing.stage2 import refine_stage2
from repro.compiler.aliasing.stage4 import refine_stage4
from repro.compiler.aliasing.stage5 import oracle_verdict, region_verdicts
from repro.compiler.aliasing.symbolic import DEFAULT_ENUMERATION_LIMIT, compare_offsets
from repro.compiler.coverage import required_pairs
from repro.compiler.labels import AliasLabel, AliasMatrix, pair_kind
from repro.ir import AffineExpr, IVar, MemObject, PointerParam, RegionBuilder, Sym
from repro.ir.graph import DFGraph
from repro.verify.fuzz import build_graph, generate_spec
from repro.workloads.suite import build_suite_workloads

FUZZ_REGIONS = 1000
SETTINGS = (DEFAULT_ENUMERATION_LIMIT, 4)


def _relevant_pairs(graph: DFGraph):
    """Every ST-ST / ST-LD / LD-ST pair, in program order."""
    mem = graph.memory_ops
    for i, older in enumerate(mem):
        for younger in mem[i + 1 :]:
            kind = pair_kind(older, younger)
            if kind is not None:
                yield older, younger, kind


def _per_pair_oracle(graph: DFGraph):
    return {
        (older.op_id, younger.op_id): oracle_verdict(
            graph, older.op_id, younger.op_id
        )
        for older, younger, _kind in _relevant_pairs(graph)
    }


def _per_pair_required(graph: DFGraph):
    out = []
    for older, younger, kind in _relevant_pairs(graph):
        verdict = oracle_verdict(graph, older.op_id, younger.op_id)
        if verdict.label is not AliasLabel.NO:
            out.append((older.op_id, younger.op_id, kind, verdict))
    return out


def _per_pair_stage1(
    graph: DFGraph,
) -> Tuple[Dict[Tuple[int, int], AliasLabel], Set[Tuple[int, int]]]:
    labels: Dict[Tuple[int, int], AliasLabel] = {}
    exact: Set[Tuple[int, int]] = set()
    for older, younger, _kind in _relevant_pairs(graph):
        rel = _classify(older.addr, younger.addr)
        labels[(older.op_id, younger.op_id)] = rel.label
        if rel.exact:
            exact.add((older.op_id, younger.op_id))
    return labels, exact


def _per_pair_stage2(graph: DFGraph, matrix: AliasMatrix):
    """Stage 2 one MAY pair at a time: (labels, exact pairs)."""
    labels = dict(matrix.labels)
    exact: Set[Tuple[int, int]] = set()
    ops = {op.op_id: op for op in graph.memory_ops}
    for (older, younger), label in matrix.labels.items():
        if label is not AliasLabel.MAY:
            continue
        a, b = ops[older].addr, ops[younger].addr
        base_a, base_b = a.interprocedural_base, b.interprocedural_base
        if base_a is None or base_b is None:
            continue
        if base_a.uid != base_b.uid:
            labels[(older, younger)] = AliasLabel.NO
            continue
        rel = compare_offsets(a, b, single_iv_only=True)
        labels[(older, younger)] = rel.label
        if rel.exact:
            exact.add((older, younger))
    return labels, exact


def _per_pair_stage4(graph: DFGraph, matrix: AliasMatrix):
    """Stage 4 one MAY pair at a time: (labels, exact pairs)."""
    labels = dict(matrix.labels)
    exact: Set[Tuple[int, int]] = set()
    ops = {op.op_id: op for op in graph.memory_ops}
    for (older, younger), label in matrix.labels.items():
        if label is not AliasLabel.MAY:
            continue
        a, b = ops[older].addr, ops[younger].addr
        base_a, base_b = a.interprocedural_base, b.interprocedural_base
        if base_a is None or base_b is None:
            continue
        if base_a.uid != base_b.uid:
            labels[(older, younger)] = AliasLabel.NO
            continue
        if a.offset.has_syms or b.offset.has_syms:
            continue
        rel = compare_offsets(a, b, single_iv_only=False)
        labels[(older, younger)] = rel.label
        if rel.exact:
            exact.add((older, younger))
    return labels, exact


def _refinement_mismatches(graph: DFGraph, stage1: AliasMatrix) -> List[str]:
    """Where keyed stages 2 and 4 differ from their per-pair references,
    on *stage1*'s labels with stage 2 on and with it off."""
    out: List[str] = []
    exact: Set[Tuple[int, int]] = set()
    stage2 = refine_stage2(graph, stage1, exact_pairs=exact)
    if (dict(stage2.labels), exact) != _per_pair_stage2(graph, stage1):
        out.append(f"{graph.name}: refine_stage2 differs from the per-pair rule")
    for name, before in (("after stage 2", stage2), ("with stage 2 off", stage1)):
        exact = set()
        stage4 = refine_stage4(graph, before, exact_pairs=exact)
        if list(stage4.labels) != list(before.labels):
            out.append(f"{graph.name}: refine_stage4 reordered the pairs {name}")
        if (dict(stage4.labels), exact) != _per_pair_stage4(graph, before):
            out.append(f"{graph.name}: refine_stage4 differs from the per-pair rule {name}")
    return out


def _mismatches(graph: DFGraph) -> List[str]:
    """What the bucketed paths get wrong on *graph* (empty = agree)."""
    out: List[str] = []
    verdicts = region_verdicts(graph)
    reference = _per_pair_oracle(graph)
    if list(verdicts.items()) != list(reference.items()):
        out.append(f"{graph.name}: region_verdicts differs from oracle_verdict")
    required = required_pairs(graph)
    if required != _per_pair_required(graph):
        out.append(f"{graph.name}: required_pairs differs from the per-pair list")
    exact: Set[Tuple[int, int]] = set()
    matrix = analyze_stage1(graph, exact_pairs=exact)
    labels, ref_exact = _per_pair_stage1(graph)
    if list(matrix.labels.items()) != list(labels.items()):
        out.append(f"{graph.name}: analyze_stage1 labels differ from _classify")
    if exact != ref_exact:
        out.append(f"{graph.name}: analyze_stage1 exact_pairs differ from _classify")
    if list(matrix.labels) != list(AliasMatrix.universe(graph).labels):
        out.append(f"{graph.name}: stage-1 pairs are not the alias universe")
    out.extend(_refinement_mismatches(graph, matrix))
    return out


@pytest.fixture
def mismatches_at_each_limit(set_enumeration_limit):
    """``mismatches_at_each_limit(graph)``: :func:`_mismatches` at every
    limit of ``SETTINGS``; the default limit is back in place after."""

    def check(graph: DFGraph) -> List[str]:
        out: List[str] = []
        for limit in SETTINGS:
            set_enumeration_limit(limit)
            out.extend(_mismatches(graph))
        set_enumeration_limit(DEFAULT_ENUMERATION_LIMIT)
        return out

    return check


@pytest.fixture(scope="module")
def suite_graphs() -> List[DFGraph]:
    return [w.graph for w in build_suite_workloads(5)]


@pytest.fixture(scope="module")
def fuzz_graphs() -> List[DFGraph]:
    return [build_graph(generate_spec(0, k)) for k in range(FUZZ_REGIONS)]


@pytest.mark.parametrize("limit", SETTINGS)
def test_suite_regions_match_per_pair_rules(suite_graphs, limit, set_enumeration_limit):
    assert len(suite_graphs) == 135
    set_enumeration_limit(limit)
    bad = [m for g in suite_graphs for m in _mismatches(g)]
    assert bad == []


@pytest.mark.parametrize("limit", SETTINGS)
def test_fuzz_regions_match_per_pair_rules(fuzz_graphs, limit, set_enumeration_limit):
    set_enumeration_limit(limit)
    bad = [m for g in fuzz_graphs for m in _mismatches(g)]
    assert bad == []


# ----------------------------------------------------------------------
# Directed cases: each pins the bucket rule it exercises by value too
# ----------------------------------------------------------------------
I = IVar("i", 16)


def _offset(const: int, syms=None) -> AffineExpr:
    return AffineExpr.of(const=const, ivs={I: 8}, syms=syms)


def _pair_graph(first, second) -> DFGraph:
    """A store at *first* then a load at *second*; each is
    ``(base, offset, width)``."""
    b = RegionBuilder("directed")
    x = b.input("x")
    b.store(first[0], first[1], value=x, width=first[2])
    b.load(second[0], second[1], width=second[2])
    return b.build()


@pytest.fixture
def decide(mismatches_at_each_limit):
    """``decide(graph)``: (stage-1 label, stage-1 exact, oracle verdict)
    of the one pair, after checking the bucketed paths against their
    references at every limit."""

    def run(graph: DFGraph):
        assert mismatches_at_each_limit(graph) == []
        exact: Set[Tuple[int, int]] = set()
        ((pair, label),) = analyze_stage1(graph, exact_pairs=exact).labels.items()
        ((_, verdict),) = region_verdicts(graph).items()
        return label, pair in exact, verdict

    return run


ARR = MemObject("arr", 4096)


def test_same_shape_symbolic_offsets_differ_by_their_constants(decide):
    s = Sym("s")
    apart = _pair_graph((ARR, _offset(0, {s: 1}), 8), (ARR, _offset(8, {s: 1}), 8))
    assert decide(apart)[0] is AliasLabel.NO
    assert decide(apart)[2].label is AliasLabel.NO
    same = _pair_graph((ARR, _offset(0, {s: 1}), 8), (ARR, _offset(0, {s: 1}), 8))
    label, exact, verdict = decide(same)
    assert label is AliasLabel.MUST and exact
    assert verdict.label is AliasLabel.MUST and verdict.exact


@pytest.mark.parametrize(
    "first,second,overlaps",
    [
        ((0, 8), (7, 1), True),    # last byte of the wider access
        ((0, 8), (8, 1), False),   # d == -w_a: just past it
        ((8, 4), (0, 8), False),   # d == w_b: just before it
        ((7, 4), (0, 8), True),    # d == w_b - 1
        ((0, 2), (-1, 2), True),   # d == 1, one byte shared
        ((0, 4), (0, 8), True),    # same start, different widths
    ],
)
def test_partial_width_overlap_window_edges(first, second, overlaps, decide):
    graph = _pair_graph(
        (ARR, _offset(first[0] + 64), first[1]), (ARR, _offset(second[0] + 64), second[1])
    )
    label, exact, verdict = decide(graph)
    expected = AliasLabel.MUST if overlaps else AliasLabel.NO
    assert label is expected and verdict.label is expected
    assert not exact and not verdict.exact
    # Through a traced pointer stage 1 says MAY, and stages 2 and 4
    # apply the same window.
    p = PointerParam("p", runtime_object=ARR, provenance=ARR)
    graph = _pair_graph(
        (p, _offset(first[0] + 64), first[1]), (ARR, _offset(second[0] + 64), second[1])
    )
    label, _, _ = decide(graph)
    assert label is AliasLabel.MAY
    stage1 = analyze_stage1(graph)
    for refine in (refine_stage2, refine_stage4):
        exact_pairs: Set[Tuple[int, int]] = set()
        ((_, refined),) = refine(graph, stage1, exact_pairs=exact_pairs).labels.items()
        assert refined is expected and not exact_pairs


def test_same_param_pair_is_decided_by_offsets(decide):
    p = PointerParam("p", runtime_object=ARR)
    q = PointerParam("q", runtime_object=ARR)
    label, _, verdict = decide(_pair_graph((p, _offset(0), 8), (p, _offset(4), 8)))
    assert label is AliasLabel.MUST and verdict.label is AliasLabel.MUST
    label, _, verdict = decide(_pair_graph((p, _offset(0), 8), (p, _offset(16), 8)))
    assert label is AliasLabel.NO and verdict.label is AliasLabel.NO
    label, _, verdict = decide(_pair_graph((p, _offset(0), 8), (q, _offset(16), 8)))
    assert label is AliasLabel.MAY and verdict.label is AliasLabel.MAY


def test_provenance_param_joins_its_objects_heaplet(decide):
    """Stage 1 keys a parameter by its own uid, so it stays MAY against
    the object; the oracle keys it by its provenance, so it shares the
    object's heaplet and the constant difference decides."""
    p = PointerParam("p", runtime_object=ARR, provenance=ARR)
    label, _, verdict = decide(_pair_graph((p, _offset(0), 8), (ARR, _offset(16), 8)))
    assert label is AliasLabel.MAY
    assert verdict.label is AliasLabel.NO and verdict.decided_by == "constant"
    label, _, verdict = decide(_pair_graph((ARR, _offset(0), 8), (p, _offset(0), 8)))
    assert label is AliasLabel.MAY
    assert verdict.label is AliasLabel.MUST and verdict.exact
    other = MemObject("other", 4096)
    _, _, verdict = decide(_pair_graph((p, _offset(0), 8), (other, _offset(0), 8)))
    assert verdict.decided_by == "heaplet"


def test_tbaa_tags_separate_before_bases(mismatches_at_each_limit):
    b = RegionBuilder("tbaa")
    x = b.input("x")
    b.store(ARR, _offset(0), value=x, type_tag="int")
    b.load(ARR, _offset(0), type_tag="float")
    graph = b.build()
    assert mismatches_at_each_limit(graph) == []
    pair = tuple(op.op_id for op in graph.memory_ops)
    assert region_verdicts(graph)[pair].decided_by == "tbaa"
    assert analyze_stage1(graph).get(*pair) is AliasLabel.NO
    # The axiom needs both tags: untag the load and the base and offsets
    # decide, here an exact match.
    b = RegionBuilder("tbaa-untagged")
    x = b.input("x")
    b.store(ARR, _offset(0), value=x, type_tag="int")
    b.load(ARR, _offset(0))
    graph = b.build()
    assert mismatches_at_each_limit(graph) == []
    pair = tuple(op.op_id for op in graph.memory_ops)
    assert region_verdicts(graph)[pair].exact
    assert analyze_stage1(graph).get(*pair) is AliasLabel.MUST


def test_stages_2_and_4_settle_by_provenance_base(mismatches_at_each_limit):
    """A lost provenance stays MAY in both stages; a known one joins its
    object's base, and two different known bases are NO — in stage 4
    too when stage 2 is off."""
    lost = PointerParam("lost", runtime_object=ARR)
    traced = PointerParam("traced", runtime_object=ARR, provenance=ARR)
    other = MemObject("other", 4096)
    elsewhere = PointerParam("elsewhere", runtime_object=other, provenance=other)
    b = RegionBuilder("provenance")
    x = b.input("x")
    b.store(lost, _offset(0), value=x)
    b.store(traced, _offset(0), value=x)
    b.load(ARR, _offset(0))
    b.load(elsewhere, _offset(0))
    graph = b.build()
    assert mismatches_at_each_limit(graph) == []
    st_lost, st_traced, ld_arr, ld_else = (op.op_id for op in graph.memory_ops)
    stage1 = analyze_stage1(graph)
    assert set(stage1.labels.values()) == {AliasLabel.MAY}
    exact: Set[Tuple[int, int]] = set()
    stage2 = refine_stage2(graph, stage1, exact_pairs=exact)
    for older, younger in ((st_lost, st_traced), (st_lost, ld_arr), (st_lost, ld_else)):
        assert stage2.get(older, younger) is AliasLabel.MAY
    assert stage2.get(st_traced, ld_arr) is AliasLabel.MUST
    assert exact == {(st_traced, ld_arr)}
    assert stage2.get(st_traced, ld_else) is AliasLabel.NO
    exact = set()
    stage4 = refine_stage4(graph, stage1, exact_pairs=exact)
    assert stage4.get(st_lost, ld_arr) is AliasLabel.MAY
    assert stage4.get(st_traced, ld_else) is AliasLabel.NO
    assert stage4.get(st_traced, ld_arr) is AliasLabel.MUST
    assert exact == {(st_traced, ld_arr)}


def test_stage4_leaves_symbolic_pairs_that_stage2_decides(mismatches_at_each_limit):
    """Offsets of one shape with a symbol differ by a constant: stage 2
    decides them, stage 4 leaves them to stage 5."""
    s = Sym("s")
    p = PointerParam("p", runtime_object=ARR, provenance=ARR)
    graph = _pair_graph((p, _offset(0, {s: 1}), 8), (ARR, _offset(64, {s: 1}), 8))
    assert mismatches_at_each_limit(graph) == []
    stage1 = analyze_stage1(graph)
    ((pair, label),) = stage1.labels.items()
    assert label is AliasLabel.MAY
    assert refine_stage2(graph, stage1).get(*pair) is AliasLabel.NO
    assert refine_stage4(graph, stage1).get(*pair) is AliasLabel.MAY
