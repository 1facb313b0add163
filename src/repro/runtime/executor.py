"""Supervised process fan-out for simulation tasks.

``run_tasks`` maps :class:`SimTask` s over a pool of dedicated worker
processes with order-preserving collection, so results come back in
task order regardless of which worker finished first — parallel and
serial runs are indistinguishable to callers.

The simulator is deterministic: a task that raised or sent back a
result that does not unpickle does the same again on a retry.  Only a
killed worker (OOM, SIGKILL) can succeed the second time.  So the pool
is *crash-only*, with one recovery rule.  Each worker owns a duplex
pipe and one in-flight task at a time, and the parent

* replaces a worker that died mid-task (EOF on its pipe) and requeues
  its task once; a second death is a terminal ``crash`` failure;
* fails every other fault at once, as a terminal ``error`` on its first
  attempt: an in-task exception, a result that fails to unpickle, a
  malformed envelope.

The supervisor blocks on the busy workers' pipes with no timeout, so it
sits idle while the workers compute instead of taking a CPU from them.

A killed sweep resumes by running the same command again: each task
that finished was already stored in the result cache by the process
that ran it, so the rerun reads it back and computes only the rest.

Terminal failures never abort the sweep mid-flight: every other task
still runs, and the :class:`SweepOutcome` carries the partial results
plus machine-readable :class:`TaskFailure` records.  ``run_tasks``
raises :class:`SweepError` at the end when any task failed;
``run_tasks_detailed`` hands back the outcome instead.

Fault injection lives in :mod:`repro.runtime.chaos` (``NACHOS_CHAOS``):
pool workers die on cue at their explicit ``crash@`` points, and the
supervisor SIGKILLs itself at an ``abort@`` point, so the recovery and
resume paths are pinned by deterministic tests.

The default job count comes from the CLI (``--jobs``) or the
``NACHOS_JOBS`` environment variable and defaults to 1 (serial, no pool
spawned).  Workers share the on-disk result cache with the parent, so a
task that another worker already computed is a cheap unpickle.

When sweep profiling is enabled (:mod:`repro.obs.profile`), every task
reports its wall time, the pid of the worker that ran it, and its
result-cache hit/miss delta; worker deaths, requeues and terminal
failures are counted too.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.profile import get_profile
from repro.runtime.chaos import get_chaos

_jobs: Optional[int] = None

#: Failure kinds: a worker died mid-task (twice), or anything else.
CRASH = "crash"
ERROR = "error"

#: Exceptions that mean "the bytes on the pipe were not a valid result".
_UNPICKLE_ERRORS = (pickle.UnpicklingError, AttributeError, ImportError, ValueError)


def get_jobs() -> int:
    """The effective default parallelism for sweeps.

    A non-integer ``NACHOS_JOBS`` raises; values below 1 clamp to 1, as
    ``--jobs`` does.
    """
    if _jobs is not None:
        return _jobs
    env = os.environ.get("NACHOS_JOBS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"NACHOS_JOBS must be an integer, got {env!r}"
        ) from None


def set_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default (``None`` restores env/serial)."""
    global _jobs
    _jobs = max(1, jobs) if jobs is not None else None


@dataclass
class TaskFailure:
    """One task that failed terminally (machine-readable)."""

    index: int
    region: str
    system: str
    kind: str            # CRASH or ERROR
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
    ``retries`` counts requeues after a worker death.
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
        super().__init__(f"{len(outcome.failures)} task(s) failed: {kinds}{more}")


@dataclass
class SimTask:
    """One (workload, system) simulation request.

    The whole :class:`~repro.workloads.generator.Workload` rides along —
    it is a plain picklable dataclass, and shipping it keeps workers
    stateless (no re-derivation from specs in the child).
    """

    workload: Any
    system: str
    invocations: int
    check: bool = True
    warm: bool = True
    kwargs: dict = field(default_factory=dict)


def _execute(task: SimTask):
    from repro.experiments.common import run_system

    return run_system(
        task.workload,
        task.system,
        invocations=task.invocations,
        check=task.check,
        warm=task.warm,
        **task.kwargs,
    )


def _task_label(task: SimTask) -> str:
    workload = task.workload
    name = getattr(workload, "name", None) or getattr(
        getattr(workload, "spec", None), "name", "?"
    )
    return str(name)


def _sigkill_self() -> None:
    """Chaos ``abort``: die the way an external SIGKILL would."""
    sig = getattr(signal, "SIGKILL", None)
    if sig is not None:
        os.kill(os.getpid(), sig)
    os._exit(137)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn, parent_conn=None) -> None:
    """Dedicated worker loop: recv one ``(index, attempt, task)``, run
    it, send one result envelope; ``None`` shuts the worker down.

    A chaos ``crash`` point is applied *here*, in the real worker
    process, so the supervisor sees genuine process death.

    Fork-context children inherit every parent-side pipe end that
    existed at fork time — including their *own* — so EOF alone cannot
    signal supervisor death.  The loop therefore polls with a timeout
    and exits when it finds itself re-parented (the supervisor was
    SIGKILLed); otherwise killed sweeps would leave orphan workers
    holding the caller's stdout/stderr pipes open forever.
    """
    from repro.runtime.cache import get_cache

    if parent_conn is not None:  # our own parent-side end (fork context)
        try:
            parent_conn.close()
        except OSError:
            pass
    cache = get_cache()
    chaos = get_chaos()
    supervisor = os.getppid()
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != supervisor:
                    break  # supervisor died; don't linger as an orphan
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        index, attempt, task = msg
        if chaos and chaos.crashes_at(index, attempt):
            os._exit(3)
        h0, m0 = cache.hits, cache.misses
        t0 = time.perf_counter()
        try:
            try:
                run = _execute(task)
            except Exception as exc:  # the task itself raised: report, stay up
                conn.send(("err", index, f"{type(exc).__name__}: {exc}"))
                continue
            conn.send(
                (
                    "ok",
                    index,
                    run,
                    cache.hits - h0,
                    cache.misses - m0,
                    time.perf_counter() - t0,
                    os.getpid(),
                )
            )
        except OSError:
            # The supervisor died while we ran the task (BrokenPipeError):
            # the result is already in the cache, so just stop.
            break
    try:
        conn.close()
    except OSError:
        pass


@dataclass
class _Worker:
    proc: Any
    conn: Any
    index: Optional[int] = None     # in-flight task index

    @property
    def busy(self) -> bool:
        return self.index is not None


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def _spawn_worker(ctx) -> _Worker:
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    # The child gets its own parent-side end too, purely so it can close
    # it (fork inherits the fd; spawn pickles None instead).
    proc = ctx.Process(
        target=_worker_main, args=(child_conn, parent_conn), daemon=True
    )
    proc.start()
    child_conn.close()
    return _Worker(proc=proc, conn=parent_conn)


def _kill_worker(worker: _Worker) -> None:
    from repro.runtime.cache import forget_swept_roots

    try:
        worker.proc.kill()
    except (OSError, AttributeError):
        pass
    worker.proc.join(timeout=5)
    forget_swept_roots()  # it may have died mid-put
    try:
        worker.conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _Supervision:
    """Shared bookkeeping between the serial and pooled drivers: a queue
    of task indices (a requeued task goes to its head) and how often each
    task's worker died under it."""

    def __init__(self, tasks: List[SimTask]) -> None:
        self.tasks = tasks
        self.profile = get_profile()
        self.sweep_stale()
        self.queue = deque(range(len(tasks)))
        self.deaths = [0] * len(tasks)
        self.open = len(tasks)
        self.retries = 0
        self.results: List[Optional[Any]] = [None] * len(tasks)
        self.failures: List[TaskFailure] = []

    def sweep_stale(self) -> None:
        """Reclaim tmp debris from writers killed mid-put (live writers
        are spared by pid check).  The cache is walked once per process
        and again after the pool kills a worker, the only way a batch can
        leave an orphan (see :func:`~repro.runtime.cache.sweep_stale_tmp_once`)."""
        from repro.runtime.cache import get_cache, sweep_stale_tmp_once

        sweep_stale_tmp_once(get_cache().root)

    def complete(
        self,
        index: int,
        run: Any,
        hits: int,
        misses: int,
        seconds: float,
        pid: int,
    ) -> None:
        self.results[index] = run
        self.open -= 1
        if self.profile.enabled:
            self.profile.record_task(
                _task_label(self.tasks[index]),
                self.tasks[index].system,
                seconds,
                pid,
                hits=hits,
                misses=misses,
            )

    def fail(self, index: int, kind: str, message: str) -> None:
        """The task's current attempt failed; it will not run again."""
        task = self.tasks[index]
        failure = TaskFailure(
            index=index,
            region=_task_label(task),
            system=task.system,
            kind=kind,
            # A crash ends on the attempt that died; an error's attempt
            # ran to completion after any earlier deaths.
            attempts=self.deaths[index] + (0 if kind == CRASH else 1),
            message=message,
        )
        self.failures.append(failure)
        self.open -= 1
        if self.profile.enabled:
            self.profile.record_fault(failure.region, failure.system, kind)
            self.profile.record_failure(
                failure.region, failure.system, kind, failure.attempts, message
            )

    def worker_died(self, index: int, message: str) -> None:
        """Requeue the task of a worker that died under it, once."""
        self.deaths[index] += 1
        if self.deaths[index] > 1:
            self.fail(index, CRASH, message)
            return
        self.queue.appendleft(index)
        self.retries += 1
        if self.profile.enabled:
            task = self.tasks[index]
            self.profile.record_fault(_task_label(task), task.system, CRASH)

    def outcome(self) -> SweepOutcome:
        return SweepOutcome(
            results=self.results, failures=self.failures, retries=self.retries
        )


def _run_serial(tasks: List[SimTask]) -> SweepOutcome:
    """In-process driver: each task runs once, and an exception fails it.

    There is no worker to lose, so chaos ``crash`` points never fire
    here; a serial run's own death is the ``abort`` point.
    """
    from repro.runtime.cache import get_cache

    sup = _Supervision(tasks)
    chaos = get_chaos()
    cache = get_cache()
    pid = os.getpid()
    profile = sup.profile
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for index, task in enumerate(tasks):
        if chaos and chaos.aborts_at(index):
            _sigkill_self()
        h0, m0 = cache.hits, cache.misses
        t0 = time.perf_counter()
        try:
            run = _execute(task)
        except Exception as exc:
            sup.fail(index, ERROR, f"{type(exc).__name__}: {exc}")
            continue
        sup.complete(
            index, run, cache.hits - h0, cache.misses - m0,
            time.perf_counter() - t0, pid,
        )
    if profile.enabled:
        profile.record_sweep(
            len(tasks), 1, time.perf_counter() - wall0,
            time.process_time() - cpu0,
        )
    return sup.outcome()


def _run_pool(tasks: List[SimTask], n: int) -> SweepOutcome:
    """The supervised pool driver (see module docstring)."""
    from repro.runtime.cache import get_cache

    sup = _Supervision(tasks)
    chaos = get_chaos()
    cache = get_cache()
    profile = sup.profile
    ctx = _mp_context()
    jobs = min(n, len(tasks))
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    workers: List[_Worker] = [_spawn_worker(ctx) for _ in range(jobs)]

    def replace(worker: _Worker) -> None:
        _kill_worker(worker)
        workers.remove(worker)
        if sup.open > len(workers):
            workers.append(_spawn_worker(ctx))

    def on_error(worker: _Worker, message: str) -> None:
        # The worker survives (in-task exception / unusable result).
        index, worker.index = worker.index, None
        sup.fail(index, ERROR, message)

    try:
        while sup.open:
            # -- dispatch queued tasks onto idle workers -----------------
            while sup.queue:
                worker = next((w for w in workers if not w.busy), None)
                if worker is None:
                    break
                index = sup.queue.popleft()
                attempt = sup.deaths[index]
                if chaos and attempt == 0 and chaos.aborts_at(index):
                    _sigkill_self()
                try:
                    worker.conn.send((index, attempt, tasks[index]))
                except (OSError, ValueError):
                    # The worker died while idle: no attempt was made.
                    sup.queue.appendleft(index)
                    replace(worker)
                    continue
                worker.index = index
            busy = [w.conn for w in workers if w.busy]
            if not busy:
                continue  # every open task is queued or running
            # -- block until a busy worker reports or dies ---------------
            by_conn: Dict[Any, _Worker] = {w.conn: w for w in workers}
            for conn in mp_connection.wait(busy):
                worker = by_conn[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    index, worker.index = worker.index, None
                    sup.worker_died(
                        index, f"worker pid {worker.proc.pid} died mid-task"
                    )
                    replace(worker)
                    continue
                except _UNPICKLE_ERRORS as exc:
                    on_error(worker, f"result failed to unpickle: {exc}")
                    continue
                if not isinstance(msg, tuple) or not msg:
                    on_error(worker, "malformed result envelope")
                elif msg[0] == "ok":
                    _, index, run, hits, misses, seconds, pid = msg
                    worker.index = None
                    cache.add_counts(hits, misses)
                    sup.complete(index, run, hits, misses, seconds, pid)
                else:
                    on_error(worker, str(msg[2]))
    finally:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(timeout=2)
            if worker.proc.is_alive():
                _kill_worker(worker)
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass
    sup.sweep_stale()  # walks again only if a worker was killed
    if profile.enabled:
        profile.record_sweep(
            len(tasks), jobs, time.perf_counter() - wall0,
            time.process_time() - cpu0,
        )
    return sup.outcome()


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def run_tasks_detailed(
    tasks: Sequence[SimTask], jobs: Optional[int] = None
) -> SweepOutcome:
    """Run *tasks* under supervision; never raises on task failure.

    Returns a :class:`SweepOutcome` whose ``results`` align
    index-for-index with *tasks* (``None`` where a task terminally
    failed) plus the failure/requeue telemetry.
    """
    tasks = list(tasks)
    n = jobs if jobs is not None else get_jobs()
    if not tasks:
        return SweepOutcome(results=[])
    if n <= 1 or len(tasks) <= 1:
        return _run_serial(tasks)
    return _run_pool(tasks, n)


def run_tasks(
    tasks: Sequence[SimTask], jobs: Optional[int] = None
) -> List[Any]:
    """Run *tasks*, returning :class:`SystemRun` s in task order.

    Raises :class:`SweepError` (carrying the partial
    :class:`SweepOutcome`) if any task failed terminally.
    """
    outcome = run_tasks_detailed(tasks, jobs=jobs)
    if not outcome.ok:
        raise SweepError(outcome)
    return outcome.results
