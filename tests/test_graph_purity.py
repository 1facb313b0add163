"""Compiling and simulating must never mutate the workload's graph.

The caching layer fingerprints ``workload.graph`` once and memoizes it,
which is only sound if nothing installs MDEs on it: the compiler returns
its edges and every system's engine takes them as a separate tuple.
These tests pin that contract: the serialized graph is bit-identical
before and after any amount of experiment activity.
"""

from __future__ import annotations

import pytest

from repro.compiler.pipeline import PipelineConfig
from repro.experiments.common import (
    clear_memos,
    compare_systems,
    compile_workload,
    run_system,
    workload_fingerprint,
)
from repro.ir.serialize import graph_to_dict
from repro.workloads.generator import build_workload
from repro.workloads.micro import build_micro
from repro.workloads.spec import BenchmarkSpec, Mechanism

ALL_SYSTEMS = (
    "opt-lsq",
    "nachos-sw",
    "nachos",
    "baseline-sw",
    "spec-lsq",
    "serial-mem",
    "oracle-sw",
)


def _may_heavy_spec() -> BenchmarkSpec:
    """Small synthetic region where the pipeline really inserts MDEs."""
    return BenchmarkSpec(
        name="purity-may",
        suite="synthetic",
        n_ops=60,
        n_mem=12,
        mlp=4,
        store_frac=0.3,
        stride=64,
        mechanism_mix={Mechanism.PARAM_OPAQUE: 0.5, Mechanism.DISTINCT: 0.5},
        chain_length=1,
    )


def test_compile_workload_leaves_graph_untouched(monkeypatch):
    import repro.experiments.common as common
    from repro.runtime.cache import ResultCache

    # A fresh compile (no memo or disk hit, whose graph is a copy).
    monkeypatch.setattr(common, "_compile_memo", {})
    workload = build_workload(_may_heavy_spec())
    before = graph_to_dict(workload.graph)
    result = compile_workload(workload, PipelineConfig.full(),
                              ResultCache(enabled=False))
    assert result.graph is workload.graph  # compiled in place, no clone
    assert result.mdes  # the edges come back beside the graph
    assert graph_to_dict(workload.graph) == before


def test_compile_result_graph_is_the_workload_graph_on_every_path(tmp_path):
    from repro.runtime.cache import ResultCache
    from repro.runtime.fingerprint import combine, config_fingerprint

    cfg = PipelineConfig.full()
    cache = ResultCache(root=tmp_path / "cache")
    workload = build_workload(_may_heavy_spec())
    clear_memos()
    fresh = compile_workload(workload, cfg, cache)
    assert compile_workload(workload, cfg, cache) is fresh  # memo hit
    clear_memos()
    from_disk = compile_workload(workload, cfg, cache)
    assert (cache.hits, cache.misses) == (1, 1)
    for result in (fresh, from_disk):
        assert result.graph is workload.graph
    assert from_disk.mdes == fresh.mdes
    # An equal workload built anew (a figure after regions.clear_caches())
    # shares the memo entry but gets its own graph.
    rebuilt = build_workload(_may_heavy_spec())
    from_memo = compile_workload(rebuilt, cfg, cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert from_memo.graph is rebuilt.graph
    assert from_memo.mdes == fresh.mdes
    # The entry itself stores no graph: every reader has the workload.
    key = combine("compile", workload_fingerprint(workload),
                  config_fingerprint(cfg))
    assert cache.get(key).graph is None


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_run_system_leaves_graph_untouched(system):
    workload = build_workload(_may_heavy_spec())
    before = graph_to_dict(workload.graph)
    run = run_system(workload, system, invocations=3)
    assert run.sim.invocations == 3
    assert graph_to_dict(workload.graph) == before


def test_compare_systems_leaves_graph_untouched():
    workload = build_micro("scatter")
    before = graph_to_dict(workload.graph)
    cmp = compare_systems(workload, invocations=4)
    assert cmp.all_correct
    assert graph_to_dict(workload.graph) == before


def test_clone_is_independent():
    workload = build_micro("gather")
    clone = workload.graph.clone()
    before = graph_to_dict(workload.graph)
    clone.replace_mdes([])
    assert graph_to_dict(workload.graph) == before


def test_unknown_system_is_rejected():
    workload = build_micro("reduction")
    with pytest.raises(ValueError):
        run_system(workload, "no-such-system", invocations=2)
