"""Parallel sweeps must be observationally identical to serial ones.

The sweep layer promises deterministic, order-preserving results at any
``--jobs`` value.  These tests run the same task grid serially and
across a 4-worker process pool — with the result cache *disabled*, so
the pool genuinely recomputes — and require bit-identical outcomes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.common import SYSTEMS, clear_memos
from repro.runtime.cache import configure_cache, get_cache
from repro.runtime.executor import SimTask, run_tasks
from repro.runtime.sweep import sweep_comparisons
from repro.workloads.micro import build_micro

MICROS = ("stream_triad", "gather", "rmw")
INVOCATIONS = 4


def _signature(run):
    sim = run.sim
    return (
        run.system,
        run.correct,
        run.n_mdes,
        sim.cycles,
        tuple(sim.per_invocation_cycles),
        sim.total_energy,
        tuple(sorted(sim.load_values.items())),
        sim.memory_image,
        sim.l1_hits,
        sim.l1_misses,
    )


def test_parallel_sweep_matches_serial(no_cache):
    workloads = [build_micro(name) for name in MICROS]

    serial = sweep_comparisons(workloads, invocations=INVOCATIONS, jobs=1)
    clear_memos()
    parallel = sweep_comparisons(
        [build_micro(name) for name in MICROS],
        invocations=INVOCATIONS,
        jobs=4,
    )

    assert len(serial) == len(parallel) == len(MICROS)
    for s_cmp, p_cmp in zip(serial, parallel):
        assert list(s_cmp.runs) == list(SYSTEMS) == list(p_cmp.runs)
        for system in SYSTEMS:
            s_run, p_run = s_cmp.runs[system], p_cmp.runs[system]
            assert _signature(s_run) == _signature(p_run)
            assert pickle.dumps(s_run.sim) == pickle.dumps(p_run.sim)
            assert s_run.sim.backend_stats == p_run.sim.backend_stats


def test_run_tasks_preserves_task_order(no_cache):
    tasks = [
        SimTask(build_micro(name), system, INVOCATIONS)
        for name in MICROS
        for system in ("opt-lsq", "serial-mem")
    ]
    runs = run_tasks(tasks, jobs=4)
    assert [r.system for r in runs] == [t.system for t in tasks]
    assert [r.sim.region for r in runs] == [t.workload.name for t in tasks]


def test_run_tasks_serial_and_pool_agree_on_extension_systems(no_cache):
    tasks = [
        SimTask(build_micro("scatter"), system, INVOCATIONS)
        for system in ("serial-mem", "oracle-sw")
    ]
    serial = run_tasks(tasks, jobs=1)
    clear_memos()
    pooled = run_tasks(tasks, jobs=2)
    for s, p in zip(serial, pooled):
        assert _signature(s) == _signature(p)


def test_supervised_pool_matches_serial(no_cache):
    # Supervision must not perturb results when nothing actually
    # faults.
    tasks = [
        SimTask(build_micro(name), system, INVOCATIONS)
        for name in MICROS
        for system in ("opt-lsq", "nachos")
    ]
    serial = run_tasks(tasks, jobs=1)
    clear_memos()
    pooled = run_tasks(tasks, jobs=3)
    for s, p in zip(serial, pooled):
        assert _signature(s) == _signature(p)
        assert pickle.dumps(s.sim) == pickle.dumps(p.sim)


def test_parallel_populates_shared_cache_for_serial_rerun(tmp_path):
    prev = get_cache()
    cache = configure_cache(root=tmp_path / "cache", enabled=True)
    clear_memos()
    try:
        workloads = [build_micro(name) for name in MICROS]
        parallel = sweep_comparisons(workloads, invocations=INVOCATIONS, jobs=4)
        # Workers shared the same on-disk root: a serial re-run in this
        # process is served entirely from cache and agrees exactly.
        clear_memos()
        cache.misses = 0
        serial = sweep_comparisons(workloads, invocations=INVOCATIONS, jobs=1)
        assert cache.misses == 0
        assert cache.hits > 0
        for p_cmp, s_cmp in zip(parallel, serial):
            for system in SYSTEMS:
                assert _signature(p_cmp.runs[system]) == _signature(
                    s_cmp.runs[system]
                )
    finally:
        clear_memos()
        configure_cache(root=prev.root, enabled=prev.enabled)
