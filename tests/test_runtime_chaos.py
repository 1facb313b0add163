"""Chaos matrix for the supervised executor.

A worker that dies mid-task is the one fault a retry can fix, so it is
the one the pool recovers from: explicit ``crash@`` points kill real
pool workers, and the sweep must come back with results identical to a
fault-free run, with the result cache off or on.  A task whose worker
dies twice fails terminally, and every other task still completes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.common import clear_memos
from repro.runtime import executor
from repro.runtime.chaos import get_chaos, parse_chaos, set_chaos
from repro.runtime.executor import (
    CRASH,
    SimTask,
    SweepError,
    run_tasks,
    run_tasks_detailed,
)
from repro.runtime.sweep import sweep_comparisons
from repro.workloads.micro import build_micro

INVOCATIONS = 4


@pytest.fixture
def chaos_env(monkeypatch):
    """Install a chaos spec via the environment (crosses the fork into
    pool workers) and guarantee cleanup."""

    def install(spec: str) -> None:
        monkeypatch.setenv("NACHOS_CHAOS", spec)

    set_chaos(None)
    yield install
    set_chaos(None)


def _tasks():
    return [
        SimTask(build_micro(name), system, INVOCATIONS)
        for name in ("stream_triad", "gather")
        for system in ("opt-lsq", "nachos")
    ]


def _sigs(runs):
    return [pickle.dumps(r.sim) for r in runs]


def _baseline():
    baseline = _sigs(run_tasks(_tasks(), jobs=1))
    clear_memos()
    return baseline


# ----------------------------------------------------------------------
# Recovery: a dead worker's task is requeued once
# ----------------------------------------------------------------------
def test_pool_recovers_from_worker_crash(no_cache, chaos_env):
    baseline = _baseline()
    chaos_env("crash@1,crash@2")
    outcome = run_tasks_detailed(_tasks(), jobs=2)
    assert outcome.ok
    assert _sigs(outcome.results) == baseline
    assert outcome.retries == 2  # tasks 1 and 2, one requeue each


def test_cached_sweep_recovers_from_worker_crashes(
    fresh_store, chaos_env, monkeypatch
):
    """A cache-on sweep of two regions x the three paper systems, whose
    tasks 1 and 4 each lose their worker once, requeues exactly two
    tasks and matches the fault-free sweep run by run."""
    workloads = [build_micro(name) for name in ("stream_triad", "scatter")]

    def sweep():
        comparisons = sweep_comparisons(workloads, invocations=8, jobs=2)
        return [pickle.dumps(r.sim) for c in comparisons for r in c.runs.values()]

    fresh_store()
    baseline = sweep()
    fresh_store()
    chaos_env("crash@1,crash@4")
    outcomes = []
    real = executor.run_tasks_detailed

    def spy(tasks, jobs=None):
        outcomes.append(real(tasks, jobs=jobs))
        return outcomes[-1]

    monkeypatch.setattr(executor, "run_tasks_detailed", spy)
    survived = sweep()
    assert sum(o.retries for o in outcomes) == 2
    assert survived == baseline


def test_serial_run_ignores_crash_points(no_cache):
    # A serial run has no worker to lose; its own death is ``abort@``.
    baseline = _baseline()
    set_chaos(parse_chaos("crash@0,crash@0:1"))
    try:
        outcome = run_tasks_detailed(_tasks(), jobs=1)
    finally:
        set_chaos(None)
    assert outcome.ok and outcome.retries == 0
    assert _sigs(outcome.results) == baseline


# ----------------------------------------------------------------------
# A second death: terminal, degraded, reported
# ----------------------------------------------------------------------
def test_exhausted_retries_degrade_to_partial_results(no_cache, chaos_env):
    # Task 1's worker dies on its first attempt and on the requeue;
    # everything else must still complete.
    chaos_env("crash@1,crash@1:1")
    outcome = run_tasks_detailed(_tasks(), jobs=2)
    assert not outcome.ok
    assert outcome.results[1] is None
    assert all(
        outcome.results[i] is not None for i in range(len(outcome.results))
        if i != 1
    )
    (failure,) = outcome.failures
    assert failure.index == 1
    assert failure.kind == CRASH
    assert failure.attempts == 2
    assert outcome.retries == 1
    report = outcome.as_report()
    assert report["tasks"] == 4 and report["completed"] == 3
    assert report["failures"][0]["kind"] == CRASH


def test_run_tasks_raises_sweep_error_with_outcome(no_cache, chaos_env):
    chaos_env("crash@0,crash@0:1")
    with pytest.raises(SweepError) as exc_info:
        run_tasks(_tasks(), jobs=2)
    assert "after retries" not in str(exc_info.value)
    outcome = exc_info.value.outcome
    assert len(outcome.failures) == 1
    assert outcome.results[0] is None
    assert sum(1 for r in outcome.results if r is not None) == 3


# ----------------------------------------------------------------------
# Spec plumbing
# ----------------------------------------------------------------------
def test_parse_chaos_grammar():
    spec = parse_chaos("crash@3,crash@5:1, abort@7")
    assert spec.crashes == {(3, 0), (5, 1)}
    assert spec.aborts == {7}
    assert spec.crashes_at(3, 0) and spec.crashes_at(5, 1)
    assert not spec.crashes_at(3, 1) and not spec.crashes_at(5, 0)
    assert spec.aborts_at(7) and not spec.aborts_at(3)
    assert not parse_chaos("").active


def test_parse_chaos_rejects_garbage():
    for spec in (
        "explode@3",
        "crash",
        "frequency=0.5",
        # the retired probabilistic, hang and corrupt knobs
        "crash=0.5",
        "seed=1",
        "hang@3",
        "corrupt@5:1",
        "hang_s=30",
        # a task gets two attempts at most; abort fires on first dispatch
        "crash@3:2",
        "abort@3:1",
    ):
        with pytest.raises(ValueError):
            parse_chaos(spec)


def test_get_chaos_env_roundtrip(monkeypatch):
    set_chaos(None)
    monkeypatch.setenv("NACHOS_CHAOS", "crash@7")
    spec = get_chaos()
    assert spec is not None
    assert spec.crashes_at(7, 0)
    monkeypatch.delenv("NACHOS_CHAOS")
    assert get_chaos() is None
