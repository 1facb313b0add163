"""Bucketed pair classification equals the per-pair rules it replaces.

Stage 1 (:func:`analyze_stage1`) and the oracle's region walk
(:func:`region_verdicts`, which :func:`required_pairs` and the fuzzer
read) settle most pairs by their rows' keys — TBAA tag, base or
heaplet, offset shape — instead of one offset difference per pair.
Each must agree with its per-pair reference on every pair: stage 1 with
``_classify`` (labels and ``exact_pairs``), the oracle with
:func:`oracle_verdict` (whole verdict objects).  The corpus is every
``build_suite_workloads(5)`` region, 1,000 fuzzer regions and a few
hand-built boundary cases, with TBAA on and off, at the default
enumeration limit and at 4.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import pytest

from repro.compiler.aliasing.stage1 import _classify, analyze_stage1
from repro.compiler.aliasing.stage5 import oracle_verdict, region_verdicts
from repro.compiler.aliasing.symbolic import DEFAULT_ENUMERATION_LIMIT
from repro.compiler.coverage import required_pairs
from repro.compiler.labels import AliasLabel, AliasMatrix, pair_kind
from repro.ir import AffineExpr, IVar, MemObject, PointerParam, RegionBuilder, Sym
from repro.ir.graph import DFGraph
from repro.verify.fuzz import build_graph, generate_spec
from repro.workloads.suite import build_suite_workloads

FUZZ_REGIONS = 1000
SETTINGS = [
    (use_tbaa, limit)
    for use_tbaa in (True, False)
    for limit in (DEFAULT_ENUMERATION_LIMIT, 4)
]


def _relevant_pairs(graph: DFGraph):
    """Every ST-ST / ST-LD / LD-ST pair, in program order."""
    mem = graph.memory_ops
    for i, older in enumerate(mem):
        for younger in mem[i + 1 :]:
            kind = pair_kind(older, younger)
            if kind is not None:
                yield older, younger, kind


def _per_pair_oracle(graph: DFGraph, use_tbaa: bool, limit: int):
    return {
        (older.op_id, younger.op_id): oracle_verdict(
            graph, older.op_id, younger.op_id,
            use_tbaa=use_tbaa, enumeration_limit=limit,
        )
        for older, younger, _kind in _relevant_pairs(graph)
    }


def _per_pair_required(graph: DFGraph, use_tbaa: bool, limit: int):
    out = []
    for older, younger, kind in _relevant_pairs(graph):
        verdict = oracle_verdict(
            graph, older.op_id, younger.op_id,
            use_tbaa=use_tbaa, enumeration_limit=limit,
        )
        if verdict.label is not AliasLabel.NO:
            out.append((older.op_id, younger.op_id, kind, verdict))
    return out


def _per_pair_stage1(
    graph: DFGraph, use_tbaa: bool, limit: int
) -> Tuple[Dict[Tuple[int, int], AliasLabel], Set[Tuple[int, int]]]:
    labels: Dict[Tuple[int, int], AliasLabel] = {}
    exact: Set[Tuple[int, int]] = set()
    for older, younger, _kind in _relevant_pairs(graph):
        rel = _classify(
            older.addr, younger.addr, use_tbaa=use_tbaa, enumeration_limit=limit
        )
        labels[(older.op_id, younger.op_id)] = rel.label
        if rel.exact:
            exact.add((older.op_id, younger.op_id))
    return labels, exact


def _mismatches(graph: DFGraph, use_tbaa: bool, limit: int) -> List[str]:
    """What the bucketed paths get wrong on *graph* (empty = agree)."""
    out: List[str] = []
    verdicts = region_verdicts(graph, use_tbaa=use_tbaa, enumeration_limit=limit)
    reference = _per_pair_oracle(graph, use_tbaa, limit)
    if list(verdicts.items()) != list(reference.items()):
        out.append(f"{graph.name}: region_verdicts differs from oracle_verdict")
    required = required_pairs(graph, use_tbaa=use_tbaa, enumeration_limit=limit)
    if required != _per_pair_required(graph, use_tbaa, limit):
        out.append(f"{graph.name}: required_pairs differs from the per-pair list")
    exact: Set[Tuple[int, int]] = set()
    matrix = analyze_stage1(
        graph, use_tbaa=use_tbaa, enumeration_limit=limit, exact_pairs=exact
    )
    labels, ref_exact = _per_pair_stage1(graph, use_tbaa, limit)
    if list(matrix.labels.items()) != list(labels.items()):
        out.append(f"{graph.name}: analyze_stage1 labels differ from _classify")
    if exact != ref_exact:
        out.append(f"{graph.name}: analyze_stage1 exact_pairs differ from _classify")
    if list(matrix.labels) != list(AliasMatrix.universe(graph).labels):
        out.append(f"{graph.name}: stage-1 pairs are not the alias universe")
    return out


@pytest.fixture(scope="module")
def suite_graphs() -> List[DFGraph]:
    return [w.graph for w in build_suite_workloads(5)]


@pytest.fixture(scope="module")
def fuzz_graphs() -> List[DFGraph]:
    return [build_graph(generate_spec(0, k)) for k in range(FUZZ_REGIONS)]


@pytest.mark.parametrize("use_tbaa,limit", SETTINGS)
def test_suite_regions_match_per_pair_rules(suite_graphs, use_tbaa, limit):
    assert len(suite_graphs) == 135
    bad = [m for g in suite_graphs for m in _mismatches(g, use_tbaa, limit)]
    assert bad == []


@pytest.mark.parametrize("use_tbaa,limit", SETTINGS)
def test_fuzz_regions_match_per_pair_rules(fuzz_graphs, use_tbaa, limit):
    bad = [m for g in fuzz_graphs for m in _mismatches(g, use_tbaa, limit)]
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


def _decide(graph: DFGraph):
    """(stage-1 label, stage-1 exact, oracle verdict) of the one pair,
    after checking both bucketed paths against their references."""
    for use_tbaa, limit in SETTINGS:
        assert _mismatches(graph, use_tbaa, limit) == []
    exact: Set[Tuple[int, int]] = set()
    ((pair, label),) = analyze_stage1(graph, exact_pairs=exact).labels.items()
    ((_, verdict),) = region_verdicts(graph).items()
    return label, pair in exact, verdict


ARR = MemObject("arr", 4096)


def test_same_shape_symbolic_offsets_differ_by_their_constants():
    s = Sym("s")
    apart = _pair_graph((ARR, _offset(0, {s: 1}), 8), (ARR, _offset(8, {s: 1}), 8))
    assert _decide(apart)[0] is AliasLabel.NO
    assert _decide(apart)[2].label is AliasLabel.NO
    same = _pair_graph((ARR, _offset(0, {s: 1}), 8), (ARR, _offset(0, {s: 1}), 8))
    label, exact, verdict = _decide(same)
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
def test_partial_width_overlap_window_edges(first, second, overlaps):
    graph = _pair_graph(
        (ARR, _offset(first[0] + 64), first[1]), (ARR, _offset(second[0] + 64), second[1])
    )
    label, exact, verdict = _decide(graph)
    expected = AliasLabel.MUST if overlaps else AliasLabel.NO
    assert label is expected and verdict.label is expected
    assert not exact and not verdict.exact


def test_same_param_pair_is_decided_by_offsets():
    p = PointerParam("p", runtime_object=ARR)
    q = PointerParam("q", runtime_object=ARR)
    label, _, verdict = _decide(_pair_graph((p, _offset(0), 8), (p, _offset(4), 8)))
    assert label is AliasLabel.MUST and verdict.label is AliasLabel.MUST
    label, _, verdict = _decide(_pair_graph((p, _offset(0), 8), (p, _offset(16), 8)))
    assert label is AliasLabel.NO and verdict.label is AliasLabel.NO
    label, _, verdict = _decide(_pair_graph((p, _offset(0), 8), (q, _offset(16), 8)))
    assert label is AliasLabel.MAY and verdict.label is AliasLabel.MAY


def test_provenance_param_joins_its_objects_heaplet():
    """Stage 1 keys a parameter by its own uid, so it stays MAY against
    the object; the oracle keys it by its provenance, so it shares the
    object's heaplet and the constant difference decides."""
    p = PointerParam("p", runtime_object=ARR, provenance=ARR)
    label, _, verdict = _decide(_pair_graph((p, _offset(0), 8), (ARR, _offset(16), 8)))
    assert label is AliasLabel.MAY
    assert verdict.label is AliasLabel.NO and verdict.decided_by == "constant"
    label, _, verdict = _decide(_pair_graph((ARR, _offset(0), 8), (p, _offset(0), 8)))
    assert label is AliasLabel.MAY
    assert verdict.label is AliasLabel.MUST and verdict.exact
    other = MemObject("other", 4096)
    _, _, verdict = _decide(_pair_graph((p, _offset(0), 8), (other, _offset(0), 8)))
    assert verdict.decided_by == "heaplet"


def test_tbaa_tags_separate_before_bases():
    b = RegionBuilder("tbaa")
    x = b.input("x")
    b.store(ARR, _offset(0), value=x, type_tag="int")
    b.load(ARR, _offset(0), type_tag="float")
    graph = b.build()
    for use_tbaa, limit in SETTINGS:
        assert _mismatches(graph, use_tbaa, limit) == []
    pair = tuple(op.op_id for op in graph.memory_ops)
    assert region_verdicts(graph)[pair].decided_by == "tbaa"
    assert region_verdicts(graph, use_tbaa=False)[pair].exact
    assert analyze_stage1(graph).get(*pair) is AliasLabel.NO
    assert analyze_stage1(graph, use_tbaa=False).get(*pair) is AliasLabel.MUST
