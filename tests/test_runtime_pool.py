"""Event-loop behaviour of the supervised pool.

The supervisor must sleep while its workers compute: it wakes on a
worker message, on the earliest in-flight deadline, and on the earliest
backoff expiry only while a worker is idle.  These tests swap the
executor's task runner for a stub (before the pool forks, so workers
run it too) whose tasks just sleep, fail once, or hang once, and pin
each of those wake-ups plus the absence of a busy-wait.
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
from repro.runtime.executor import SimTask, run_tasks_detailed
from repro.runtime.retry import RetryPolicy


def _stub_execute(task: SimTask) -> float:
    """Sleep ``kwargs["sleep"]`` seconds; on the first attempt of a task
    with a ``marker`` path, ``fail`` or ``hang`` instead.  Returns the
    system-wide monotonic time at which the task finished."""
    marker = task.kwargs.get("marker")
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        if task.kwargs["first"] == "fail":
            raise RuntimeError("first attempt fails")
        time.sleep(60.0)  # hang until the supervisor's deadline kills us
    time.sleep(task.kwargs.get("sleep", 0.0))
    return time.monotonic()


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
    outcome = run_tasks_detailed(tasks, jobs=2, policy=RetryPolicy())
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    assert outcome.ok and len(outcome.results) == 8
    # A polling loop burns ~1x the wall here; a blocking one a sliver.
    assert cpu < 0.25 * wall, f"supervisor CPU {cpu:.2f}s over {wall:.2f}s wall"


def test_backoff_expiry_wakes_the_idle_worker(stub_pool, tmp_path):
    policy = RetryPolicy(
        max_retries=2, backoff_base=0.3, backoff_factor=1.0, backoff_max=0.3
    )
    tasks = [
        _task(sleep=3.0),
        _task(marker=str(tmp_path / "fail-once"), first="fail"),
    ]
    outcome = run_tasks_detailed(tasks, jobs=2, policy=policy)
    assert outcome.ok and outcome.retries == 1
    long_done, retry_done = outcome.results
    # The retry must run on the idle worker once its backoff expires,
    # not wait for the busy worker's 3 s task to report back.
    assert retry_done < long_done - 1.5


def test_timeout_kills_and_retries_while_other_workers_busy(
    stub_pool, profiled, tmp_path
):
    # Task 0 hangs on its first attempt.  The other worker runs a 1 s
    # task, then a 1.9 s one, so it is busy (and silent) from before the
    # 2 s deadline until 2.9 s: only the deadline itself can wake the
    # supervisor in time.
    policy = RetryPolicy(timeout=2.0, max_retries=2, backoff_base=0.05)
    tasks = [
        _task(marker=str(tmp_path / "hang-once"), first="hang"),
        _task(sleep=1.0),
        _task(sleep=1.9),
    ]
    wall0 = time.perf_counter()
    outcome = run_tasks_detailed(tasks, jobs=2, policy=policy)
    wall = time.perf_counter() - wall0
    assert outcome.ok and outcome.retries == 1
    assert profiled.fault_counts() == {"timeout": 1}
    # The hung attempt was killed at its deadline, not after its 60 s
    # sleep, and the retry finished while the other worker was busy.
    assert outcome.results[0] < outcome.results[2]
    assert wall < 10.0


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_record_carries_supervisor_cpu(stub_pool, profiled, jobs):
    outcome = run_tasks_detailed(
        [_task(sleep=0.05) for _ in range(4)], jobs=jobs, policy=RetryPolicy()
    )
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
        outcome = run_tasks_detailed(
            [_task(sleep=0.01) for _ in range(2)], jobs=2, policy=RetryPolicy()
        )
        assert outcome.ok
    assert walks == [root]

    # An orphan from a dead writer, then a batch whose hung attempt is
    # SIGKILLed at its deadline: the pool walks the store again.
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    orphan = root / f".put-{proc.pid}-x.tmp"
    orphan.write_bytes(b"orphan")
    policy = RetryPolicy(timeout=0.5, max_retries=1, backoff_base=0.01)
    outcome = run_tasks_detailed(
        [_task(marker=str(tmp_path / "hang-once"), first="hang"), _task(sleep=0.01)],
        jobs=2,
        policy=policy,
    )
    assert outcome.ok and outcome.retries == 1
    assert walks == [root, root]
    assert not orphan.exists()
