"""The two bitset reachability indexes equal the set-based sweeps they
replace.

:func:`guaranteed_reachability` (the static checker's, shared by
``verify_enforcement`` and ``check_sync_coverage``) must equal a
per-op set-union reference over data edges and ORDER MDEs on every
suite region's compiled MDEs and on random DAGs carrying ORDER, FORWARD
and MAY edges.  Stage 3's ``_ReachIndex`` updates its masks in place
per retained edge; after every edge they must equal a full re-sweep.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest

import repro.compiler.aliasing.stage3 as stage3
from repro.compiler import AliasPipeline, compile_region, guaranteed_reachability
from repro.compiler.verify import Reachability
from repro.ir import AffineExpr, MemObject, RegionBuilder
from repro.ir.graph import DFGraph, MDEKind, MemoryDependencyEdge
from repro.verify.fuzz import build_graph, generate_spec
from repro.workloads.suite import build_suite_workloads


def _reference(graph: DFGraph, mdes) -> Dict[int, Set[int]]:
    """Op -> every op a data or ORDER path leads to, by set unions."""
    succ: Dict[int, Set[int]] = {op.op_id: set() for op in graph.ops}
    for op in graph.ops:
        for src in op.inputs:
            succ[src].add(op.op_id)
    for edge in mdes:
        if edge.kind is MDEKind.ORDER:
            succ[edge.src].add(edge.dst)
    reach: Dict[int, Set[int]] = {op.op_id: set() for op in graph.ops}
    for op in reversed(graph.ops):
        for nxt in succ[op.op_id]:
            reach[op.op_id].add(nxt)
            reach[op.op_id] |= reach[nxt]
    return reach


def _as_sets(reach: Reachability, graph: DFGraph) -> Dict[int, Set[int]]:
    """The bitset index read back as op -> reachable ops."""
    ids = [op.op_id for op in graph.ops]
    assert reach.position == {oid: k for k, oid in enumerate(ids)}
    out: Dict[int, Set[int]] = {oid: set() for oid in ids}
    for younger in ids:
        mask = reach.ancestors[younger]
        while mask:
            low = mask & -mask
            out[ids[low.bit_length() - 1]].add(younger)
            mask ^= low
    return out


def _random_dag(seed: int) -> Tuple[DFGraph, List[MemoryDependencyEdge]]:
    """Loads, stores and adds over random earlier ops, with random MDEs
    of every kind between the memory ops."""
    rng = random.Random(seed)
    arr = MemObject("a", 4096)
    b = RegionBuilder(f"dag{seed}")
    made = [b.input("x")]
    for _ in range(rng.randint(2, 40)):
        inputs = rng.sample(made, min(len(made), rng.randint(0, 2)))
        offset = AffineExpr.constant(8 * rng.randrange(8))
        roll = rng.random()
        if roll < 0.35:
            op = b.load(arr, offset, inputs=inputs)
        elif roll < 0.7:
            op = b.store(arr, offset, value=rng.choice(made), inputs=inputs)
        else:
            op = b.add(rng.choice(made), rng.choice(made))
        made.append(op)
    graph = b.build()
    mem = [op.op_id for op in graph.memory_ops]
    edges = []
    if len(mem) >= 2:
        for _ in range(rng.randint(0, 2 * len(mem))):
            src, dst = sorted(rng.sample(mem, 2))
            edges.append(MemoryDependencyEdge(src, dst, rng.choice(list(MDEKind))))
    return graph, edges


@pytest.fixture(scope="module")
def suite_graphs() -> List[DFGraph]:
    return [w.graph for w in build_suite_workloads(5)]


def test_bitset_equals_set_reference_on_suite_mdes(suite_graphs):
    assert len(suite_graphs) == 135
    for graph in suite_graphs:
        mdes = AliasPipeline().run(graph, apply_mdes=False).mdes
        reach = guaranteed_reachability(graph, mdes)
        assert _as_sets(reach, graph) == _reference(graph, mdes), graph.name


def test_bitset_equals_set_reference_on_random_dags():
    for seed in range(200):
        graph, edges = _random_dag(seed)
        reference = _reference(graph, edges)
        reach = guaranteed_reachability(graph, edges)
        assert _as_sets(reach, graph) == reference, seed
        ids = [op.op_id for op in graph.ops]
        for older in ids:
            for younger in ids:
                assert reach.reaches(older, younger) == (younger in reference[older])
        # The graph's own MDEs (mdes=None) are read the same way.
        installed = graph.clone()
        installed.replace_mdes(edges)
        assert guaranteed_reachability(installed) == reach, seed


def test_incremental_add_edge_equals_full_sweep(monkeypatch, suite_graphs):
    """Every edge stage 3 retains, on every suite region and 200 fuzzer
    regions, leaves the masks a full sweep would compute."""
    add_edge = stage3._ReachIndex.add_edge
    edges = []

    def checked(self, src, dst):
        add_edge(self, src, dst)
        incremental = dict(self._reach)
        self._sweep()
        assert self._reach == incremental, (src, dst)
        edges.append((src, dst))

    monkeypatch.setattr(stage3._ReachIndex, "add_edge", checked)
    for graph in suite_graphs:
        compile_region(graph.clone())
    for k in range(200):
        compile_region(build_graph(generate_spec(3, k)))
    assert len(edges) > 100


def test_incremental_add_edge_on_random_edges():
    """Random forward edges, redundant ones included, between any ops."""
    for seed in range(50):
        graph, _ = _random_dag(seed)
        rng = random.Random(seed)
        ids = [op.op_id for op in graph.ops]
        index = stage3._ReachIndex(graph)
        for _ in range(2 * len(ids)):
            src, dst = sorted(rng.sample(ids, 2))
            index.add_edge(src, dst)
            incremental = dict(index._reach)
            index._sweep()
            assert index._reach == incremental, (seed, src, dst)
