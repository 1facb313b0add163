"""Supervised process fan-out for simulation tasks.

``run_tasks`` maps :class:`SimTask` s over a pool of dedicated worker
processes with order-preserving collection, so results come back in
task order regardless of which worker finished first — parallel and
serial runs are indistinguishable to callers.

The pool driver splits a batch three ways before anything forks:

* **Hits run in the supervisor.**  A task whose sim record is already
  on disk (found from its sim key, without compiling) runs through
  :func:`_execute` right here, in task order.
  Workers are forked only when a miss remains, so an all-hit batch
  (a figure re-render) forks nothing and pickles nothing.
* **Misses go out by region.**  One region's missing tasks form one
  dispatch unit, run in task order by one worker, so the region's
  golden run, address stream, placement and compile happen once.
  Units go out longest first by a static cost (ops x invocations x
  tasks), and a task without a workload is a unit of its own.
* **Forked workers name tasks by index.**  They inherited the batch, so
  a unit is a list of ``(index, attempt)`` pairs; under spawn the
  :class:`SimTask` rides along.  Workers still send one result envelope
  per task.

The simulator is deterministic: a task that raised or sent back a
result that does not unpickle does the same again on a retry.  Only a
killed worker (OOM, SIGKILL) can succeed the second time.  So the pool
is *crash-only*, with one recovery rule.  Each worker owns a duplex
pipe and one in-flight unit at a time, and the parent

* replaces a worker that died mid-unit (EOF on its pipe), charges one
  death to the task it was running and requeues that task once, ahead
  of the unit's unstarted tasks (requeued uncharged); a second death is
  a terminal ``crash`` failure;
* fails every other fault at once, as a terminal ``error`` on its first
  attempt: an in-task exception, a result that fails to unpickle, a
  malformed envelope.

The supervisor blocks on the busy workers' pipes with no timeout, so it
sits idle while the workers compute instead of taking a CPU from them.

A killed sweep resumes by running the same command again: each task
that finished was already stored in the result cache by the process
that ran it, so the rerun serves it in the supervisor and computes only
the rest.

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
spawned).  Workers share the on-disk result cache with the parent;
each result envelope carries the task's cache hit/miss delta, which the
supervisor folds into its own counters.

A batch's record is its :class:`SweepOutcome`: results, terminal
failures and requeues.  Per-task host time is perfbench's
(``perfbench/run.py --trace 1`` times every task as a span).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence

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
    it is a plain picklable dataclass.  A forked worker inherits it with
    the batch; a spawned one receives it with its unit.
    """

    workload: Any
    system: str
    invocations: int
    warm: bool = True
    kwargs: dict = field(default_factory=dict)


def _execute(task: SimTask):
    from repro.experiments.common import run_system

    return run_system(
        task.workload,
        task.system,
        invocations=task.invocations,
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


def _cached(task: SimTask) -> bool:
    """Whether *task*'s sim record is already on disk.

    A task without a workload, or one that cannot even be keyed, counts
    as a miss: it then runs (and fails, if it must) where misses run.
    """
    if task.workload is None:
        return False
    from repro.experiments.common import sim_cached

    try:
        return sim_cached(
            task.workload, task.system, task.invocations, task.warm,
            **task.kwargs,
        )
    except Exception:
        return False


def _units(tasks: List[SimTask], indices: List[int]) -> List[List[int]]:
    """Group task *indices* into dispatch units, longest first.

    A unit is one region's tasks (those sharing a workload object) in
    task order, so its golden run, address stream, placement and compile
    happen once, in one worker; a task without a workload is a unit of
    its own.  Units are ordered by a static cost, ops x invocations
    summed over their tasks, so the longest start first and the pool's
    tail stays short.
    """
    groups: Dict[Any, List[int]] = {}
    for index in indices:
        workload = tasks[index].workload
        key = ("task", index) if workload is None else ("region", id(workload))
        groups.setdefault(key, []).append(index)

    def cost(unit: List[int]) -> int:
        return sum(
            len(tasks[i].workload.graph) * tasks[i].invocations
            for i in unit
            if tasks[i].workload is not None
        )

    return sorted(groups.values(), key=cost, reverse=True)


def _envelope(index: int, task: SimTask, cache) -> tuple:
    """Run one task; its result envelope: ``("ok", index, run, cache hits,
    cache misses)``, or ``("err", index, message)`` when the task
    raised."""
    h0, m0 = cache.hits, cache.misses
    try:
        run = _execute(task)
    except Exception as exc:
        return ("err", index, f"{type(exc).__name__}: {exc}")
    return ("ok", index, run, cache.hits - h0, cache.misses - m0)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn, parent_conn=None, tasks=None) -> None:
    """Dedicated worker loop: recv one unit, a list of ``(index, attempt,
    task)`` triples, run its tasks in order and send one result envelope
    per task; ``None`` shuts the worker down.  A forked worker inherited
    the batch as *tasks*, and its units name tasks by index alone (the
    triple's task is ``None``).

    A chaos ``crash`` point is applied *here*, in the real worker
    process, as it picks the task up, so the supervisor sees genuine
    process death.

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
            unit = conn.recv()
        except (EOFError, OSError):
            break
        if unit is None:
            break
        try:
            for index, attempt, task in unit:
                if chaos and chaos.crashes_at(index, attempt):
                    os._exit(3)
                if task is None:
                    task = tasks[index]
                conn.send(_envelope(index, task, cache))
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
    #: The dispatched unit's task indices not yet reported; the first
    #: is the one running.
    unit: deque = field(default_factory=deque)

    @property
    def busy(self) -> bool:
        return bool(self.unit)


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def _spawn_worker(ctx, tasks: Optional[List[SimTask]] = None) -> _Worker:
    """Start one worker; *tasks* is the batch a forked worker inherits
    (``None`` under spawn, whose units carry their tasks)."""
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    # The child gets its own parent-side end too, purely so it can close
    # it (fork inherits the fd; spawn pickles None instead).
    proc = ctx.Process(
        target=_worker_main, args=(child_conn, parent_conn, tasks), daemon=True
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
    of dispatch units (a requeued unit goes to its head) and how often
    each task's worker died under it."""

    def __init__(self, tasks: List[SimTask]) -> None:
        from repro.runtime.cache import get_cache

        self.tasks = tasks
        self.cache = get_cache()
        self.chaos = get_chaos()
        self.sweep_stale()
        self.queue: deque = deque()
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
        from repro.runtime.cache import sweep_stale_tmp_once

        sweep_stale_tmp_once(self.cache.root)

    def abort_check(self, index: int) -> None:
        """Chaos ``abort``: die before task *index* first runs anywhere."""
        if self.chaos and self.deaths[index] == 0 and self.chaos.aborts_at(index):
            _sigkill_self()

    def run_here(self, index: int) -> None:
        """Run task *index* in this process and settle it."""
        self.abort_check(index)
        self.settle(index, _envelope(index, self.tasks[index], self.cache))

    def settle(self, index: int, msg: tuple, remote: bool = False) -> None:
        """Complete or fail task *index* from its result envelope; a
        *remote* (pool worker's) envelope brings its cache counts home."""
        if msg[0] != "ok":
            self.fail(index, ERROR, str(msg[2]))
            return
        _, _, run, hits, misses = msg
        if remote:
            self.cache.add_counts(hits, misses)
        self.results[index] = run
        self.open -= 1

    def fail(self, index: int, kind: str, message: str) -> None:
        """The task's current attempt failed; it will not run again."""
        task = self.tasks[index]
        self.failures.append(TaskFailure(
            index=index,
            region=_task_label(task),
            system=task.system,
            kind=kind,
            # A crash ends on the attempt that died; an error's attempt
            # ran to completion after any earlier deaths.
            attempts=self.deaths[index] + (0 if kind == CRASH else 1),
            message=message,
        ))
        self.open -= 1

    def worker_died(self, unit: deque, message: str) -> None:
        """The worker running *unit* died under its first task: charge
        that task one death and requeue it once, at the head of the
        unit's unstarted rest, which is requeued uncharged."""
        index, *rest = unit
        self.deaths[index] += 1
        if self.deaths[index] > 1:
            self.fail(index, CRASH, message)
        else:
            rest.insert(0, index)
            self.retries += 1
        if rest:
            self.queue.appendleft(rest)

    def outcome(self) -> SweepOutcome:
        return SweepOutcome(
            results=self.results, failures=self.failures, retries=self.retries
        )


def _run_serial(tasks: List[SimTask]) -> SweepOutcome:
    """In-process driver: each task runs once, and an exception fails it.

    There is no worker to lose, so chaos ``crash`` points never fire
    here; a serial run's own death is the ``abort`` point.
    """
    sup = _Supervision(tasks)
    for index in range(len(tasks)):
        sup.run_here(index)
    return sup.outcome()


def _run_pool(tasks: List[SimTask], n: int) -> SweepOutcome:
    """The supervised pool driver (see module docstring)."""
    sup = _Supervision(tasks)
    misses: List[int] = []
    for index, task in enumerate(tasks):
        if _cached(task):
            sup.run_here(index)
        else:
            misses.append(index)
    sup.queue.extend(_units(tasks, misses))
    jobs = min(n, len(sup.queue))
    ctx = _mp_context()
    inherited = tasks if ctx.get_start_method() == "fork" else None
    workers: List[_Worker] = []

    def spawn() -> None:
        workers.append(_spawn_worker(ctx, inherited))

    def replace(worker: _Worker) -> None:
        _kill_worker(worker)
        workers.remove(worker)
        if len(sup.queue) > sum(1 for w in workers if not w.busy):
            spawn()

    for _ in range(jobs):
        spawn()
    try:
        while sup.open:
            # -- dispatch queued units onto idle workers -----------------
            while sup.queue:
                worker = next((w for w in workers if not w.busy), None)
                if worker is None:
                    break
                unit = sup.queue.popleft()
                for index in unit:
                    sup.abort_check(index)
                try:
                    worker.conn.send([
                        (i, sup.deaths[i], None if inherited else tasks[i])
                        for i in unit
                    ])
                except (OSError, ValueError):
                    # The worker died while idle: no attempt was made.
                    sup.queue.appendleft(unit)
                    replace(worker)
                    continue
                worker.unit = deque(unit)
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
                    unit, worker.unit = worker.unit, deque()
                    sup.worker_died(
                        unit, f"worker pid {worker.proc.pid} died mid-task"
                    )
                    replace(worker)
                    continue
                except _UNPICKLE_ERRORS as exc:
                    # The worker survives and goes on with its unit.
                    msg = ("err", None, f"result failed to unpickle: {exc}")
                if not isinstance(msg, tuple) or not msg:
                    msg = ("err", None, "malformed result envelope")
                sup.settle(worker.unit.popleft(), msg, remote=True)
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
