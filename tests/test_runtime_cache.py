"""The content-addressed result cache: store, fingerprints, warm runs."""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.compiler.pipeline import PipelineConfig
from repro.runtime.cache import ResultCache, configure_cache, get_cache
from repro.runtime.fingerprint import (
    combine,
    config_fingerprint,
    envs_fingerprint,
    graph_fingerprint,
)
from repro.experiments.common import clear_memos, run_system
from repro.workloads.micro import build_micro

from .conftest import build_may_region, build_simple_region


@pytest.fixture
def fresh_cache(tmp_path):
    """An isolated, empty cache installed as the process default."""
    prev = get_cache()
    cache = configure_cache(root=tmp_path / "cache", enabled=True)
    clear_memos()
    yield cache
    clear_memos()
    configure_cache(root=prev.root, enabled=prev.enabled)


# ----------------------------------------------------------------------
# Object store
# ----------------------------------------------------------------------
def test_roundtrip_and_miss(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=True)
    key = combine("unit", "roundtrip")
    assert cache.get(key) is ResultCache.MISS
    cache.put(key, {"cycles": 123, "values": [1, 2, 3]})
    assert cache.get(key) == {"cycles": 123, "values": [1, 2, 3]}
    assert cache.hits == 1 and cache.misses == 1


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=True)
    key = combine("unit", "corrupt")
    cache.put(key, "fine")
    path = Path(cache._object_path(key))
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is ResultCache.MISS


def test_truncated_entry_is_a_miss_and_reputtable(tmp_path):
    # A crash mid-write on a filesystem without atomic rename leaves a
    # prefix of the pickle; reads must demote to a miss and a re-put
    # must restore the entry.
    cache = ResultCache(root=tmp_path, enabled=True)
    key = combine("unit", "truncated")
    cache.put(key, {"cycles": 99})
    path = Path(cache._object_path(key))
    path.write_bytes(path.read_bytes()[:5])
    assert cache.get(key) is ResultCache.MISS
    cache.put(key, {"cycles": 99})
    assert cache.get(key) == {"cycles": 99}


@pytest.mark.parametrize("content", [b"", b"\0" * 4096], ids=["empty", "zeros"])
def test_torn_cache_entry_reads_as_a_miss_and_is_reputtable(tmp_path, content):
    """A put is not fsync'd, so after an OS crash an entry may be empty or
    zero-filled; either reads as a miss and can be put again."""
    cache = ResultCache(root=tmp_path, enabled=True)
    key = combine("unit", "torn")
    cache.put(key, {"cycles": 7})
    Path(cache._object_path(key)).write_bytes(content)
    assert cache.get(key) is ResultCache.MISS
    cache.put(key, {"cycles": 7})
    assert cache.get(key) == {"cycles": 7}


def test_put_leaves_no_tmp_droppings(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=True)
    for i in range(5):
        cache.put(combine("unit", "tmp", str(i)), i)
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []


def test_disabled_cache_never_touches_disk(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=False)
    key = combine("unit", "disabled")
    cache.put(key, "value")
    assert cache.get(key) is ResultCache.MISS
    assert not (tmp_path / "objects").exists()
    assert cache.hits == 0 and cache.misses == 0


def test_stats_and_clear(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=True)
    for i in range(3):
        cache.put(combine("unit", "stats", str(i)), list(range(i)))
    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["bytes"] > 0
    assert cache.clear() == 3
    assert cache.stats()["entries"] == 0


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_graph_fingerprint_stable_across_rebuilds():
    # Fresh builds draw fresh uids from the global counter; the
    # canonicalized fingerprint must not see them.
    assert graph_fingerprint(build_simple_region()) == graph_fingerprint(
        build_simple_region()
    )
    assert graph_fingerprint(build_may_region()) == graph_fingerprint(
        build_may_region()
    )


def test_graph_fingerprint_distinguishes_content():
    assert graph_fingerprint(build_simple_region()) != graph_fingerprint(
        build_may_region()
    )


def test_workload_fingerprint_stable_across_rebuilds():
    from repro.experiments.common import workload_fingerprint

    assert workload_fingerprint(build_micro("gather")) == workload_fingerprint(
        build_micro("gather")
    )
    assert workload_fingerprint(build_micro("gather")) != workload_fingerprint(
        build_micro("scatter")
    )


def test_config_fingerprint():
    assert config_fingerprint(None) == "none"
    assert config_fingerprint(PipelineConfig.full()) == config_fingerprint(
        PipelineConfig.full()
    )
    assert config_fingerprint(PipelineConfig.full()) != config_fingerprint(
        PipelineConfig.baseline_compiler()
    )


def test_envs_fingerprint_order_insensitive_keys():
    a = [{"i": 1, "j": 2}, {"i": 3, "j": 4}]
    b = [{"j": 2, "i": 1}, {"j": 4, "i": 3}]
    assert envs_fingerprint(a) == envs_fingerprint(b)
    assert envs_fingerprint(a) != envs_fingerprint([{"i": 9, "j": 2}])


def test_combine_is_order_sensitive():
    assert combine("a", "b") == combine("a", "b")
    assert combine("a", "b") != combine("b", "a")


# ----------------------------------------------------------------------
# Warm runs through run_system
# ----------------------------------------------------------------------
def test_warm_run_is_byte_identical_and_served_from_cache(fresh_cache):
    workload = build_micro("stream_triad")
    cold = run_system(workload, "nachos", invocations=4)
    assert fresh_cache.hits == 0 and fresh_cache.misses > 0

    # Drop the in-process memos so the second run must go to disk.
    clear_memos()
    fresh_cache.misses = 0
    warm = run_system(build_micro("stream_triad"), "nachos", invocations=4)
    assert fresh_cache.hits > 0
    assert fresh_cache.misses == 0
    assert pickle.dumps(warm.sim) == pickle.dumps(cold.sim)
    assert warm.correct == cold.correct
    assert warm.n_mdes == cold.n_mdes


def test_compile_only_figure_reruns_from_disk(fresh_cache, monkeypatch):
    """A compile-only figure stores its compiles in the result cache, so
    a rerun after the in-process tables are dropped reads every compile
    from disk and runs the pipeline on none."""
    from repro.compiler.pipeline import AliasPipeline
    from repro.experiments import fig14, regions
    from repro.workloads.suite import SUITE

    first = fig14.run()
    clear_memos()
    regions.clear_caches()

    def refuse(self, *args, **kwargs):
        raise AssertionError("the rerun called AliasPipeline.run")

    monkeypatch.setattr(AliasPipeline, "run", refuse)
    fresh_cache.hits = fresh_cache.misses = 0
    second = fig14.run()
    assert (fresh_cache.hits, fresh_cache.misses) == (len(SUITE), 0)
    assert fig14.render(second) == fig14.render(first)


def test_session_hit_counters_feed_stats(fresh_cache):
    workload = build_micro("reduction")
    run_system(workload, "opt-lsq", invocations=3)
    clear_memos()
    run_system(workload, "opt-lsq", invocations=3)
    stats = fresh_cache.stats()
    assert stats["session_hits"] >= 1
    assert stats["hits"] >= 1
