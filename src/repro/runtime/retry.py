"""Bounded retry with deterministic exponential backoff.

The supervised executor (:mod:`repro.runtime.executor`) never gives up
on a task at the first fault: worker crashes, hangs past the per-task
timeout, corrupt result pickles, and in-task exceptions all requeue the
task through a :class:`RetryScheduler` until it either succeeds or
exhausts ``max_retries`` attempts and becomes a terminal
:class:`TaskFailure`.

Everything here is deterministic and time-injected:

* backoff delays are ``base * factor**attempt`` capped at ``maximum``,
  scaled by a seeded jitter drawn from :func:`stable_unit` — the same
  ``(seed, task, attempt)`` always yields the same delay, in any
  process;
* the scheduler itself never reads a clock; callers pass ``now`` in, so
  tests can drive it with a fake clock and assert the full schedule.

A sweep's outcome is a :class:`SweepOutcome`: the results list (``None``
where a task terminally failed), the failure records, and the retry
count.  :func:`repro.runtime.executor.run_tasks` raises
:class:`SweepError` when any task terminally failed;
``run_tasks_detailed`` returns the outcome for callers that want the
partial results (the CLI's graceful-degradation path).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Failure kinds, in the order the chaos harness injects them.
CRASH = "crash"        # worker process died (segfault/OOM-kill class)
TIMEOUT = "timeout"    # task ran past the per-task deadline; worker killed
CORRUPT = "corrupt"    # result arrived but did not unpickle/validate
ERROR = "error"        # the task itself raised an exception

FAILURE_KINDS = (CRASH, TIMEOUT, CORRUPT, ERROR)


def stable_unit(seed: int, *parts: Any) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from ``(seed, parts)``.

    sha256-based, so it is identical across processes and Python hash
    randomization — the chaos harness and the backoff jitter both hang
    off this.
    """
    text = "\x1f".join([str(seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs for one sweep.

    ``timeout`` is the per-task wall-clock budget enforced by the pool
    supervisor (``None`` disables it; serial runs cannot preempt a task
    and therefore never time out).  A task is attempted at most
    ``max_retries + 1`` times.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def backoff(self, key: int, attempt: int) -> float:
        """Delay before retrying *key* after failed attempt *attempt*.

        Deterministic in ``(seed, key, attempt)``; always within
        ``raw * [1 - jitter, 1 + jitter]`` of the capped exponential.
        """
        raw = min(
            self.backoff_base * self.backoff_factor ** attempt, self.backoff_max
        )
        u = stable_unit(self.seed, "backoff", key, attempt)
        return raw * (1.0 + self.jitter * (2.0 * u - 1.0))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Build a policy from ``NACHOS_TIMEOUT`` / ``NACHOS_MAX_RETRIES``
        / ``NACHOS_BACKOFF_{BASE,FACTOR,MAX,SEED}``."""

        def _float(name: str, default):
            raw = os.environ.get(name, "")
            if not raw:
                return default
            try:
                return float(raw)
            except ValueError:
                return default

        def _int(name: str, default: int) -> int:
            raw = os.environ.get(name, "")
            if not raw:
                return default
            try:
                return int(raw)
            except ValueError:
                return default

        timeout = _float("NACHOS_TIMEOUT", None)
        if timeout is not None and timeout <= 0:
            timeout = None
        return cls(
            timeout=timeout,
            max_retries=max(0, _int("NACHOS_MAX_RETRIES", cls.max_retries)),
            backoff_base=_float("NACHOS_BACKOFF_BASE", cls.backoff_base),
            backoff_factor=_float("NACHOS_BACKOFF_FACTOR", cls.backoff_factor),
            backoff_max=_float("NACHOS_BACKOFF_MAX", cls.backoff_max),
            seed=_int("NACHOS_BACKOFF_SEED", cls.seed),
        )


@dataclass
class TaskFailure:
    """One task that exhausted its retries (machine-readable)."""

    index: int
    region: str
    system: str
    kind: str            # one of FAILURE_KINDS
    attempts: int
    message: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "region": self.region,
            "system": self.system,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
        }


@dataclass
class SweepOutcome:
    """What a supervised sweep produced.

    ``results`` aligns index-for-index with the submitted tasks; entries
    are ``None`` exactly where ``failures`` records a terminal failure.
    """

    results: List[Optional[Any]]
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_report(self) -> Dict[str, Any]:
        """The machine-readable per-task failure report."""
        return {
            "tasks": len(self.results),
            "completed": sum(1 for r in self.results if r is not None),
            "retries": self.retries,
            "failures": [f.as_dict() for f in self.failures],
        }


class SweepError(RuntimeError):
    """Raised by ``run_tasks`` when tasks terminally failed.

    Carries the :class:`SweepOutcome`, so catchers still have the
    partial results and the failure report.
    """

    def __init__(self, outcome: SweepOutcome) -> None:
        self.outcome = outcome
        kinds = ", ".join(
            f"{f.region}/{f.system}: {f.kind} x{f.attempts}"
            for f in outcome.failures[:5]
        )
        more = (
            f" (+{len(outcome.failures) - 5} more)"
            if len(outcome.failures) > 5
            else ""
        )
        super().__init__(
            f"{len(outcome.failures)} task(s) failed after retries: {kinds}{more}"
        )


# Task states
_PENDING = 0
_RUNNING = 1
_DONE = 2
_FAILED = 3


class RetryScheduler:
    """Pure attempt-state machine for a fixed task list.

    Indices ``0..n-1`` move ``pending -> running -> done`` or back to
    ``pending`` (with a backoff-delayed eligibility time) on failure,
    until ``max_retries`` is exhausted and they land in ``failed``.
    Time is injected by the caller, so schedules are reproducible.
    """

    def __init__(self, n_tasks: int, policy: RetryPolicy) -> None:
        self.policy = policy
        self._state = [_PENDING] * n_tasks
        self._attempt = [0] * n_tasks
        self._eligible_at = [0.0] * n_tasks
        self._open = n_tasks
        self.retries = 0
        #: terminally failed (index, attempts-made) pairs, in failure order
        self.terminal: List[Tuple[int, int]] = []

    # -- queries ---------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._open == 0

    @property
    def unfinished(self) -> int:
        return self._open

    def attempts(self, index: int) -> int:
        return self._attempt[index]

    def next_eligible_time(self) -> Optional[float]:
        """Earliest eligibility among pending tasks (None if none pend)."""
        times = [
            self._eligible_at[i]
            for i, s in enumerate(self._state)
            if s == _PENDING
        ]
        return min(times) if times else None

    # -- transitions -----------------------------------------------------
    def pop_eligible(self, now: float) -> Optional[Tuple[int, int]]:
        """Claim the lowest-index pending task whose backoff has elapsed.

        Returns ``(index, attempt)`` and marks it running, or ``None``.
        Lowest-index-first keeps dispatch order deterministic.
        """
        for i, s in enumerate(self._state):
            if s == _PENDING and self._eligible_at[i] <= now:
                self._state[i] = _RUNNING
                return i, self._attempt[i]
        return None

    def record_success(self, index: int) -> None:
        self._state[index] = _DONE
        self._open -= 1

    def record_failure(self, index: int, now: float) -> Optional[float]:
        """A running attempt failed.  Returns the backoff delay before
        the next attempt, or ``None`` if retries are exhausted (the task
        is now terminally failed)."""
        attempt = self._attempt[index]
        if attempt >= self.policy.max_retries:
            self._state[index] = _FAILED
            self._open -= 1
            self.terminal.append((index, attempt + 1))
            return None
        delay = self.policy.backoff(index, attempt)
        self._attempt[index] = attempt + 1
        self._eligible_at[index] = now + delay
        self._state[index] = _PENDING
        self.retries += 1
        return delay

    def requeue(self, index: int) -> None:
        """Return a claimed task to the queue without burning an attempt
        (the dispatch itself failed, e.g. a dead worker's pipe)."""
        if self._state[index] == _RUNNING:
            self._state[index] = _PENDING
            self._eligible_at[index] = 0.0
