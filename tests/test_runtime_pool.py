"""Event-loop behaviour, recovery rule and dispatch of the supervised pool.

The supervisor must sleep while its workers compute, waking only on a
worker message or a worker's death.  A worker that dies mid-task is
replaced and its task requeued once; any other fault fails the task on
its first attempt.  These tests swap the executor's task runner for a
stub (before the pool forks, so workers run it too) whose tasks sleep,
raise, die, or send back a result that does not unpickle, and count
every call through a log file.

The dispatch tests run real micro regions: the supervisor serves cache
hits itself, and a region's missing tasks go to one worker as a unit,
so its golden run and placement happen once per sweep.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.experiments.common as common
from repro.experiments.common import SYSTEMS, clear_memos
from repro.obs import metrics_from_profile
from repro.obs.profile import (
    FaultRecord,
    disable_profiling,
    enable_profiling,
    reset_profile,
)
from repro.runtime import cache as cache_module
from repro.runtime import executor
from repro.runtime.chaos import set_chaos
from repro.runtime.executor import CRASH, ERROR, SimTask, run_tasks_detailed
from repro.runtime.sweep import sweep_comparisons
from repro.workloads.micro import build_micro

MICROS = ("stream_triad", "gather", "rmw")


def _refuse():
    raise ValueError("refused to unpickle")


class _Unpicklable:
    """Pickles fine in the worker; unpickling it in the parent raises."""

    def __reduce__(self):
        return _refuse, ()


def _stub_execute(task: SimTask):
    """Sleep ``kwargs["sleep"]`` seconds and return the system-wide
    monotonic time at which the task finished.

    A task with a ``log`` path appends one line to it per call.  While
    the log holds at most ``faults`` lines (default 1), the call
    applies its ``fault`` instead: ``raise``, or ``die`` the way a
    killed worker does.  ``unpicklable`` returns a result the
    supervisor cannot unpickle.
    """
    log = task.kwargs.get("log")
    if log is not None:
        with open(log, "a") as fh:
            fh.write("call\n")
        if _calls(log) <= task.kwargs.get("faults", 1):
            if task.kwargs["fault"] == "raise":
                raise RuntimeError("task raised")
            os._exit(3)
    if task.kwargs.get("unpicklable"):
        return _Unpicklable()
    time.sleep(task.kwargs.get("sleep", 0.0))
    return time.monotonic()


def _calls(log) -> int:
    with open(log) as fh:
        return sum(1 for _ in fh)


def _task(**kwargs) -> SimTask:
    return SimTask(workload=None, system="stub", invocations=0, kwargs=kwargs)


@pytest.fixture
def stub_pool(monkeypatch):
    """Route every task through :func:`_stub_execute`, fault-free."""
    monkeypatch.delenv("NACHOS_CHAOS", raising=False)
    set_chaos(None)
    monkeypatch.setattr(executor, "_execute", _stub_execute)
    yield
    set_chaos(None)


@pytest.fixture
def profiled():
    reset_profile()
    profile = enable_profiling()
    yield profile
    disable_profiling()
    reset_profile()


def test_supervisor_sleeps_while_workers_compute(stub_pool):
    tasks = [_task(sleep=0.2) for _ in range(8)]
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    outcome = run_tasks_detailed(tasks, jobs=2)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    assert outcome.ok and len(outcome.results) == 8
    # A polling loop burns ~1x the wall here; a blocking one a sliver.
    assert cpu < 0.25 * wall, f"supervisor CPU {cpu:.2f}s over {wall:.2f}s wall"


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_task_runs_once(stub_pool, profiled, tmp_path, jobs):
    # The simulator is deterministic: a task that raised would raise
    # again, so it fails on its first attempt and is never rerun.
    log = tmp_path / "calls"
    tasks = [
        _task(log=str(log), fault="raise", faults=99),
        _task(sleep=0.01),
        _task(sleep=0.01),
    ]
    outcome = run_tasks_detailed(tasks, jobs=jobs)
    assert _calls(log) == 1
    assert outcome.retries == 0
    (failure,) = outcome.failures
    assert (failure.index, failure.kind, failure.attempts) == (0, ERROR, 1)
    assert "RuntimeError: task raised" in failure.message
    assert outcome.results[0] is None
    assert all(r is not None for r in outcome.results[1:])
    assert profiled.fault_counts() == {ERROR: 1}
    assert profiled.retries == 0


def test_killed_worker_task_completes_after_one_requeue(
    stub_pool, profiled, tmp_path
):
    log = tmp_path / "calls"
    tasks = [_task(log=str(log), fault="die"), _task(sleep=0.01)]
    outcome = run_tasks_detailed(tasks, jobs=2)
    assert outcome.ok and outcome.retries == 1
    assert _calls(log) == 2
    assert all(r is not None for r in outcome.results)
    assert profiled.fault_counts() == {CRASH: 1}
    assert profiled.retries == 1


def test_worker_killed_twice_is_a_terminal_crash(stub_pool, profiled, tmp_path):
    log = tmp_path / "calls"
    tasks = [_task(sleep=0.01), _task(log=str(log), fault="die", faults=2)]
    tasks += [_task(sleep=0.01) for _ in range(3)]
    outcome = run_tasks_detailed(tasks, jobs=2)
    assert _calls(log) == 2
    (failure,) = outcome.failures
    assert (failure.index, failure.kind, failure.attempts) == (1, CRASH, 2)
    assert "died mid-task" in failure.message
    assert outcome.retries == 1
    assert outcome.results[1] is None
    assert all(r is not None for i, r in enumerate(outcome.results) if i != 1)
    assert profiled.fault_counts() == {CRASH: 2}
    assert len(profiled.failures) == 1


def test_unpicklable_result_is_a_terminal_error(stub_pool, tmp_path):
    # The worker survives and takes the next task.
    tasks = [_task(unpicklable=True)] + [_task(sleep=0.01) for _ in range(3)]
    outcome = run_tasks_detailed(tasks, jobs=2)
    (failure,) = outcome.failures
    assert (failure.index, failure.kind, failure.attempts) == (0, ERROR, 1)
    assert failure.message.startswith("result failed to unpickle")
    assert outcome.retries == 0
    assert all(r is not None for r in outcome.results[1:])


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_record_carries_supervisor_cpu(stub_pool, profiled, jobs):
    outcome = run_tasks_detailed([_task(sleep=0.05) for _ in range(4)], jobs=jobs)
    assert outcome.ok
    (sweep,) = profiled.sweeps
    assert sweep.jobs == jobs
    assert 0.0 <= sweep.supervisor_cpu_seconds <= sweep.wall_seconds
    assert profiled.supervisor_cpu_seconds == sweep.supervisor_cpu_seconds
    registry = metrics_from_profile(profiled)
    gauge = registry.gauge("sweep.supervisor_cpu_seconds")
    assert gauge.value == sweep.supervisor_cpu_seconds


def test_stale_tmp_walk_once_per_process_and_after_a_kill(
    stub_pool, monkeypatch, tmp_path
):
    # Walking a store for orphaned ``*.tmp`` files is an rglob over the
    # whole tree, and only a killed writer leaves one: every batch after
    # the first skips the walk until the pool kills a worker.
    walks = []
    real_sweep = cache_module.sweep_stale_tmp

    def counting_sweep(root, *args, **kwargs):
        walks.append(Path(root))
        return real_sweep(root, *args, **kwargs)

    monkeypatch.setattr(cache_module, "sweep_stale_tmp", counting_sweep)
    monkeypatch.setattr(cache_module, "_swept_roots", set())
    root = cache_module.get_cache().root
    for _ in range(2):
        outcome = run_tasks_detailed([_task(sleep=0.01) for _ in range(2)], jobs=2)
        assert outcome.ok
    assert walks == [root]

    # An orphan from a dead writer, then a batch whose first attempt
    # kills its worker: the pool walks the store again.
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    orphan = root / f".put-{proc.pid}-x.tmp"
    orphan.write_bytes(b"orphan")
    outcome = run_tasks_detailed(
        [_task(log=str(tmp_path / "calls"), fault="die"), _task(sleep=0.01)],
        jobs=2,
    )
    assert outcome.ok and outcome.retries == 1
    assert walks == [root, root]
    assert not orphan.exists()


def test_nachos_jobs_must_be_an_integer(monkeypatch):
    # A typo must not quietly run the sweep serially; values below 1
    # still clamp to 1, as ``--jobs`` does.
    monkeypatch.setattr(executor, "_jobs", None)
    monkeypatch.setenv("NACHOS_JOBS", "junk")
    with pytest.raises(ValueError, match="NACHOS_JOBS"):
        executor.get_jobs()
    monkeypatch.setenv("NACHOS_JOBS", "0")
    assert executor.get_jobs() == 1
    monkeypatch.setenv("NACHOS_JOBS", "3")
    assert executor.get_jobs() == 3


# ----------------------------------------------------------------------
# Dispatch: hits in the supervisor, misses by region
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_store(monkeypatch, tmp_path):
    """An empty on-disk cache and memo tables, fault-free."""
    monkeypatch.delenv("NACHOS_CHAOS", raising=False)
    set_chaos(None)
    store = cache_module.ResultCache(root=tmp_path / "cache")
    monkeypatch.setattr(cache_module, "_default", store)
    clear_memos()
    yield store
    clear_memos()


def _logging(fn, log, tag):
    """*fn*, appending ``"<tag> <graph name>"`` to *log* per call (forked
    workers inherit the wrapper and append to the same file)."""

    def wrapper(graph, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{tag} {graph.name}\n")
        return fn(graph, *args, **kwargs)

    return wrapper


def _sigs(comparisons):
    return [
        (cmp.workload.name, system, pickle.dumps(cmp.runs[system].sim),
         cmp.runs[system].correct)
        for cmp in comparisons
        for system in SYSTEMS
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_cold_sweep_sets_each_region_up_once(fresh_store, monkeypatch,
                                             tmp_path, jobs):
    log = tmp_path / "calls"
    monkeypatch.setattr(common, "golden_execute",
                        _logging(common.golden_execute, log, "golden"))
    monkeypatch.setattr(common, "place_region",
                        _logging(common.place_region, log, "place"))
    workloads = [build_micro(name) for name in MICROS]
    results = sweep_comparisons(workloads, invocations=4, jobs=jobs)
    assert all(cmp.all_correct for cmp in results)
    calls = sorted(log.read_text().splitlines())
    names = sorted(w.graph.name for w in workloads)
    assert calls == sorted(
        [f"golden {n}" for n in names] + [f"place {n}" for n in names]
    )


def test_all_hit_sweep_forks_nothing(fresh_store, monkeypatch, profiled):
    workloads = [build_micro(name) for name in MICROS]
    serial = sweep_comparisons(workloads, invocations=4, jobs=1)
    clear_memos()  # every sim record now comes from disk

    spawned = []
    executed = []
    real_spawn, real_execute = executor._spawn_worker, executor._execute

    def spy_spawn(*args, **kwargs):
        spawned.append(args)
        return real_spawn(*args, **kwargs)

    def spy_execute(task):
        executed.append((task.workload.name, task.system))
        return real_execute(task)

    monkeypatch.setattr(executor, "_spawn_worker", spy_spawn)
    monkeypatch.setattr(executor, "_execute", spy_execute)
    hits0, misses0 = fresh_store.hits, fresh_store.misses
    warm = sweep_comparisons(workloads, invocations=4, jobs=2)
    assert spawned == []
    assert executed == [(w.name, s) for w in workloads for s in SYSTEMS]
    assert fresh_store.misses == misses0 and fresh_store.hits > hits0
    assert _sigs(warm) == _sigs(serial)
    assert [s.forked for s in profiled.sweeps] == [0, 0]


def test_pool_batch_builds_each_trace_once(fresh_store, monkeypatch, tmp_path):
    """A pool batch keys each task (to tell hits from misses) and then
    serves or computes it; the region's trace is built once per
    (workload, invocations) across all of that, in every process."""
    from repro.workloads.generator import Workload

    log = tmp_path / "calls"
    real = Workload.invocations

    def spy(workload, n):
        with open(log, "a") as fh:
            fh.write(f"{workload.name} {n}\n")
        return real(workload, n)

    monkeypatch.setattr(Workload, "invocations", spy)
    workloads = [build_micro(name) for name in MICROS]
    sweep_comparisons(workloads, invocations=4, jobs=2)  # misses, forked
    clear_memos()
    sweep_comparisons(workloads, invocations=4, jobs=2)  # hits, in place
    assert sorted(log.read_text().splitlines()) == sorted(
        f"{w.name} 4" for w in workloads
    )


def test_systems_leave_the_shared_trace_untouched(fresh_store):
    """Every system (and a traced run) reads the one memoized trace of a
    region, so none may mutate it."""
    from repro.obs import traced_run
    from repro.runtime.fingerprint import envs_fingerprint

    workload = build_micro("gather")
    envs, _wfp, envs_fp = common._prepare(workload, "nachos", 4)
    for system in sorted(common._KNOWN_SYSTEMS):
        common.run_system(workload, system, invocations=4)
    traced_run(workload, "nachos", invocations=4)
    assert common._prepare(workload, "opt-lsq", 4)[0] is envs
    assert envs_fingerprint(envs) == envs_fp
    assert envs_fingerprint(workload.invocations(4)) == envs_fp


def test_worker_killed_mid_unit_charges_its_current_task_only(
    fresh_store, monkeypatch, profiled
):
    workloads = [build_micro(name) for name in MICROS[:2]]
    serial = sweep_comparisons(workloads, invocations=4, jobs=1)
    clear_memos()
    fresh_store.clear()
    reset_profile()

    # Task 1 is the second system of the first region's unit: its worker
    # dies after reporting task 0 and before starting task 2.
    monkeypatch.setenv("NACHOS_CHAOS", "crash@1")
    # Keep the other region's worker busy until the death is seen: an
    # idle survivor would take the requeued task, and nothing would fork.
    execute = executor._execute

    def other_region_waits(task):
        if task.workload.name == workloads[1].name:
            time.sleep(0.3)
        return execute(task)

    monkeypatch.setattr(executor, "_execute", other_region_waits)
    tasks = [SimTask(w, system, 4) for w in workloads for system in SYSTEMS]
    outcome = run_tasks_detailed(tasks, jobs=2)
    assert outcome.ok and outcome.retries == 1
    assert profiled.faults == [
        FaultRecord(workloads[0].name, SYSTEMS[1], CRASH)
    ]
    pooled = [r.sim for r in outcome.results]
    assert [pickle.dumps(sim) for sim in pooled] == [
        pickle.dumps(cmp.runs[system].sim)
        for cmp in serial for system in SYSTEMS
    ]
    (sweep,) = profiled.sweeps
    assert sweep.forked == 3  # two workers and one replacement


def test_units_group_regions_longest_first():
    small, large = build_micro("rmw"), build_micro("gather")
    assert len(small.graph) < len(large.graph)
    tasks = [
        SimTask(small, "opt-lsq", 4),
        SimTask(None, "stub", 0),
        SimTask(large, "opt-lsq", 4),
        SimTask(small, "nachos", 4),
        SimTask(large, "nachos", 4),
    ]
    assert executor._units(tasks, [0, 1, 2, 3, 4]) == [[2, 4], [0, 3], [1]]
    # Invocations weigh in: a long-running small region goes first.
    tasks[0].invocations = tasks[3].invocations = 40
    assert executor._units(tasks, [0, 2, 3, 4]) == [[0, 3], [2, 4]]
