"""Wall-clock profiling of the sweep runtime.

The supervised executor (:mod:`repro.runtime.executor`) reports one
:class:`TaskRecord` per simulation task — region, system, wall seconds,
the worker that ran it, and the task's result-cache hit/miss delta —
plus one :class:`SweepRecord` per ``run_tasks`` batch, one
:class:`FaultRecord` per failed attempt (a worker that died under the
task, or a task error), and one :class:`FailureRecord` per task that
failed terminally.  Recording is off by default (``enable()`` flips
it; the disabled check is one module attribute load per batch), so
ordinary sweeps pay nothing.

``nachos-repro profile <figure>`` enables this collector, runs the
figure, and prints per-stage / per-region wall-time and cache tables;
:func:`repro.obs.metrics.metrics_from_profile` exports the same data as
a metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class TaskRecord:
    """One simulation task's execution telemetry."""

    region: str
    system: str
    seconds: float
    worker: int          # pid of the process that ran it (parent if serial)
    hits: int = 0        # result-cache hits observed during the task
    misses: int = 0


@dataclass
class SweepRecord:
    """One ``run_tasks`` batch.

    ``supervisor_cpu_seconds`` is the driving process's CPU time
    (``time.process_time()``) across the batch.  Under the pool that is
    the supervisor alone and should stay a small share of the wall; a
    serial batch simulates in-process, so there it includes the tasks.
    """

    tasks: int
    jobs: int
    wall_seconds: float
    supervisor_cpu_seconds: float = 0.0


@dataclass
class FaultRecord:
    """One failed task *attempt* (the supervisor requeued it or gave up).

    ``kind`` is ``crash`` (the worker died under the task; the first
    death requeues it, the second is terminal) or ``error`` (the task
    raised, or its result failed to unpickle; always terminal).
    """

    region: str
    system: str
    kind: str


@dataclass
class FailureRecord:
    """One task that failed terminally."""

    region: str
    system: str
    kind: str
    attempts: int
    message: str = ""


@dataclass
class SweepProfile:
    """Accumulates task/sweep records while enabled."""

    enabled: bool = False
    tasks: List[TaskRecord] = field(default_factory=list)
    sweeps: List[SweepRecord] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)

    # -- recording (called by the executor) -----------------------------
    def record_task(
        self,
        region: str,
        system: str,
        seconds: float,
        worker: int,
        hits: int = 0,
        misses: int = 0,
    ) -> None:
        self.tasks.append(TaskRecord(region, system, seconds, worker, hits, misses))

    def record_sweep(
        self, tasks: int, jobs: int, wall_seconds: float,
        supervisor_cpu_seconds: float = 0.0,
    ) -> None:
        self.sweeps.append(
            SweepRecord(tasks, jobs, wall_seconds, supervisor_cpu_seconds)
        )

    def record_fault(self, region: str, system: str, kind: str) -> None:
        self.faults.append(FaultRecord(region, system, kind))

    def record_failure(
        self, region: str, system: str, kind: str, attempts: int,
        message: str = "",
    ) -> None:
        self.failures.append(FailureRecord(region, system, kind, attempts, message))

    # -- rollups ---------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.sweeps)

    @property
    def supervisor_cpu_seconds(self) -> float:
        return sum(s.supervisor_cpu_seconds for s in self.sweeps)

    @property
    def task_seconds(self) -> float:
        return sum(t.seconds for t in self.tasks)

    def per_worker(self) -> Dict[int, float]:
        """pid -> busy seconds."""
        out: Dict[int, float] = {}
        for t in self.tasks:
            out[t.worker] = out.get(t.worker, 0.0) + t.seconds
        return out

    def per_region(self) -> Dict[str, Tuple[int, float]]:
        """region -> (task count, busy seconds), heaviest first."""
        acc: Dict[str, List[float]] = {}
        for t in self.tasks:
            entry = acc.setdefault(t.region, [0, 0.0])
            entry[0] += 1
            entry[1] += t.seconds
        return {
            k: (int(v[0]), v[1])
            for k, v in sorted(acc.items(), key=lambda kv: (-kv[1][1], kv[0]))
        }

    def utilization(self) -> float:
        """Busy worker-seconds over offered worker-seconds (<= 1.0)."""
        offered = sum(s.wall_seconds * max(s.jobs, 1) for s in self.sweeps)
        return self.task_seconds / offered if offered else 0.0

    def fault_counts(self) -> Dict[str, int]:
        """kind -> failed-attempt count (requeued and terminal alike)."""
        out: Dict[str, int] = {}
        for f in self.faults:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    @property
    def retries(self) -> int:
        """Failed attempts that were requeued (terminal ones excluded)."""
        return len(self.faults) - len(self.failures)

    def reset(self) -> None:
        self.tasks.clear()
        self.sweeps.clear()
        self.faults.clear()
        self.failures.clear()


# ----------------------------------------------------------------------
# Process-wide collector
# ----------------------------------------------------------------------
_profile = SweepProfile()


def get_profile() -> SweepProfile:
    return _profile


def profiling_enabled() -> bool:
    return _profile.enabled


def enable_profiling() -> SweepProfile:
    _profile.enabled = True
    return _profile


def disable_profiling() -> None:
    _profile.enabled = False


def reset_profile() -> None:
    _profile.reset()
