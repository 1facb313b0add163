"""Property tests for the retry/backoff scheduler.

The :class:`~repro.runtime.retry.RetryScheduler` is a pure, time-injected
state machine, so these tests drive it with a fake clock over seeded
failure patterns and assert the invariants the executor depends on:

* every task ends in exactly one of {result, terminal failure};
* no task is lost, duplicated, or attempted more than ``max_retries + 1``
  times;
* backoff delays are deterministic in the seed and bounded by the
  jittered, capped exponential.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.runtime.retry import (
    RetryPolicy,
    RetryScheduler,
    stable_unit,
)

#: (n_tasks, max_retries, failure probability, pattern seed) grid — a
#: spread of always-succeed, flaky, and pathological always-fail mixes.
PATTERNS = [
    (1, 0, 0.0, 0),
    (1, 0, 1.0, 0),
    (5, 2, 0.0, 1),
    (5, 2, 0.3, 2),
    (8, 1, 0.5, 3),
    (8, 3, 0.9, 4),
    (12, 2, 1.0, 5),
    (20, 4, 0.25, 6),
    (20, 0, 0.5, 7),
]


def _drive(n_tasks: int, policy: RetryPolicy, p_fail: float, seed: int):
    """Run the scheduler to completion against a seeded failure oracle.

    Returns (attempt log, successes, now) where the log holds every
    ``(index, attempt)`` pair the scheduler handed out, in order.
    """
    sched = RetryScheduler(n_tasks, policy)
    log = []
    successes = set()
    now = 0.0
    for _ in range(n_tasks * (policy.max_retries + 1) + 1):
        progressed = False
        while True:
            claimed = sched.pop_eligible(now)
            if claimed is None:
                break
            progressed = True
            index, attempt = claimed
            log.append((index, attempt))
            if stable_unit(seed, "fail?", index, attempt) < p_fail:
                sched.record_failure(index, now)
            else:
                sched.record_success(index)
                successes.add(index)
        if sched.finished:
            break
        nxt = sched.next_eligible_time()
        assert nxt is not None, "unfinished scheduler with nothing pending"
        assert nxt > now or not progressed
        now = max(nxt, now)
    return log, successes, now


@pytest.mark.parametrize("n_tasks,max_retries,p_fail,seed", PATTERNS)
def test_every_task_ends_in_exactly_one_state(n_tasks, max_retries, p_fail, seed):
    policy = RetryPolicy(max_retries=max_retries, backoff_base=0.01)
    sched = RetryScheduler(n_tasks, policy)
    log, successes, _ = _drive(n_tasks, policy, p_fail, seed)

    # Rebuild terminal set by re-driving (fresh scheduler, same oracle).
    sched = RetryScheduler(n_tasks, policy)
    now = 0.0
    while not sched.finished:
        claimed = sched.pop_eligible(now)
        if claimed is None:
            now = sched.next_eligible_time()
            continue
        index, attempt = claimed
        if stable_unit(seed, "fail?", index, attempt) < p_fail:
            sched.record_failure(index, now)
        else:
            sched.record_success(index)
    terminal = {index for index, _ in sched.terminal}

    # Exactly one terminal state per task; together they cover the grid.
    assert successes | terminal == set(range(n_tasks))
    assert successes & terminal == set()
    # The terminal list itself holds no duplicates.
    assert len(terminal) == len(sched.terminal)


@pytest.mark.parametrize("n_tasks,max_retries,p_fail,seed", PATTERNS)
def test_no_attempt_lost_duplicated_or_over_budget(
    n_tasks, max_retries, p_fail, seed
):
    policy = RetryPolicy(max_retries=max_retries, backoff_base=0.01)
    log, successes, _ = _drive(n_tasks, policy, p_fail, seed)

    # No (index, attempt) pair is handed out twice.
    assert len(log) == len(set(log))
    per_task = {}
    for index, attempt in log:
        attempts = per_task.setdefault(index, [])
        # Attempts arrive in order 0, 1, 2, ... with none skipped.
        assert attempt == len(attempts)
        attempts.append(attempt)
    # Every task was attempted at least once, none beyond its budget.
    assert set(per_task) == set(range(n_tasks))
    for index, attempts in per_task.items():
        assert len(attempts) <= max_retries + 1
        if index not in successes:
            assert len(attempts) == max_retries + 1


@pytest.mark.parametrize("n_tasks,max_retries,p_fail,seed", PATTERNS)
def test_schedule_is_deterministic_given_seed(n_tasks, max_retries, p_fail, seed):
    policy = RetryPolicy(max_retries=max_retries, backoff_base=0.01, seed=seed)
    first = _drive(n_tasks, policy, p_fail, seed)
    second = _drive(n_tasks, policy, p_fail, seed)
    assert first == second


def test_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(
        backoff_base=0.05, backoff_factor=2.0, backoff_max=2.0,
        jitter=0.25, seed=11,
    )
    for key in range(10):
        for attempt in range(8):
            delay = policy.backoff(key, attempt)
            assert delay == policy.backoff(key, attempt)
            raw = min(0.05 * 2.0 ** attempt, 2.0)
            assert raw * 0.75 <= delay <= raw * 1.25
    # A different seed yields a different (jittered) schedule.
    other = dataclasses.replace(policy, seed=12)
    assert any(
        policy.backoff(k, a) != other.backoff(k, a)
        for k in range(10)
        for a in range(8)
    )


def test_backoff_grows_then_caps():
    policy = RetryPolicy(
        backoff_base=0.1, backoff_factor=2.0, backoff_max=0.8, jitter=0.0
    )
    delays = [policy.backoff(0, a) for a in range(6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 0.8, 0.8]


def test_requeue_does_not_burn_an_attempt():
    policy = RetryPolicy(max_retries=1, backoff_base=0.01)
    sched = RetryScheduler(2, policy)
    index, attempt = sched.pop_eligible(0.0)
    assert (index, attempt) == (0, 0)
    # Dispatch itself failed (dead worker's pipe): the task goes back to
    # the queue still at attempt 0 and immediately eligible.
    sched.requeue(index)
    assert sched.pop_eligible(0.0) == (0, 0)
    assert sched.retries == 0


def test_policy_from_env(monkeypatch):
    monkeypatch.setenv("NACHOS_TIMEOUT", "12.5")
    monkeypatch.setenv("NACHOS_MAX_RETRIES", "4")
    monkeypatch.setenv("NACHOS_BACKOFF_BASE", "0.2")
    monkeypatch.setenv("NACHOS_BACKOFF_SEED", "9")
    policy = RetryPolicy.from_env()
    assert policy.timeout == 12.5
    assert policy.max_retries == 4
    assert policy.backoff_base == 0.2
    assert policy.seed == 9
    monkeypatch.setenv("NACHOS_TIMEOUT", "0")  # 0/negative disables
    assert RetryPolicy.from_env().timeout is None
    monkeypatch.setenv("NACHOS_MAX_RETRIES", "junk")
    assert RetryPolicy.from_env().max_retries == RetryPolicy.max_retries
