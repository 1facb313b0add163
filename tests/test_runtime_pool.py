"""Event-loop behaviour and recovery rule of the supervised pool.

The supervisor must sleep while its workers compute, waking only on a
worker message or a worker's death.  A worker that dies mid-task is
replaced and its task requeued once; any other fault fails the task on
its first attempt.  These tests swap the executor's task runner for a
stub (before the pool forks, so workers run it too) whose tasks sleep,
raise, die, or send back a result that does not unpickle, and count
every call through a log file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import metrics_from_profile
from repro.obs.profile import disable_profiling, enable_profiling, reset_profile
from repro.runtime import cache as cache_module
from repro.runtime import executor
from repro.runtime.chaos import set_chaos
from repro.runtime.executor import CRASH, ERROR, SimTask, run_tasks_detailed


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
