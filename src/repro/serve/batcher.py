"""In-flight dedup + batching into the supervised worker pool.

The :class:`Batcher` is the seam between the asyncio daemon and the
process-pool runtime (:func:`repro.runtime.executor.run_tasks_detailed`):

* **Dedup by fingerprint.**  Each submitted task carries its content
  fingerprint; a second submit of an in-flight fingerprint *attaches*
  to the running computation instead of queueing a duplicate — the
  speculative-allocation idea from the LSQ literature applied to
  requests: claim the slot first, compute once.
* **Batching without a wait.**  A request submits all its tasks in one
  :meth:`Batcher.submit` call, and they join the queue together.  The
  queue ships as soon as the pool thread is free: as one
  ``run_tasks_detailed`` call of whole submits, at most
  :data:`MAX_BATCH` tasks (a single larger submit ships alone).  Work
  that arrives while a batch runs accumulates and ships as the next
  batch, so a burst costs one supervised pool dispatch, not one per
  request, and an idle daemon dispatches a request at once.  A
  request's tasks are never split across batches, so they are indexed
  0, 1, ... within one batch whenever it arrives at an idle pool.
* **Fault story inherited.**  The pool's supervision is the service's:
  a task whose worker dies is requeued once, and any other fault fails
  it at once; a terminally failed task resolves its waiters with
  :class:`ServeTaskError` carrying the machine-readable
  :class:`~repro.runtime.executor.TaskFailure`.

The pool call runs on a single dedicated thread, which both keeps the
event loop free and serializes batches — exactly one supervised pool
exists at a time.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.runtime.executor import SimTask, run_tasks_detailed

#: Most tasks one pool dispatch takes.
MAX_BATCH = 32


class ServeTaskError(RuntimeError):
    """A task failed terminally in the supervised pool."""

    def __init__(self, failure: Optional[dict]) -> None:
        self.failure = failure or {}
        kind = self.failure.get("kind", "error")
        message = self.failure.get("message", "task failed")
        super().__init__(f"{kind}: {message}")


@dataclass
class _Entry:
    fingerprint: str
    task: SimTask
    future: "asyncio.Future[Any]"


@dataclass
class BatcherStats:
    """Monotonic counters the daemon folds into its metrics registry:
    running totals only, so a long-lived daemon's stats stay a fixed
    size however many batches it dispatches."""

    tasks_submitted: int = 0
    tasks_deduped: int = 0
    tasks_failed: int = 0
    batches: int = 0
    tasks_batched: int = 0
    largest_batch: int = 0
    retries: int = 0

    def batch_size(self) -> Dict[str, Any]:
        """The ``serve.batch_size`` summary: batch count, mean and
        largest size."""
        mean = self.tasks_batched / self.batches if self.batches else 0.0
        return {
            "type": "summary",
            "count": self.batches,
            "mean": mean,
            "max": self.largest_batch,
        }


class Batcher:
    """Fingerprint-deduplicating batcher over the supervised pool."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs
        self.stats = BatcherStats()
        self._inflight: Dict[str, _Entry] = {}
        #: One group of new entries per submit call, oldest first.
        self._pending: Deque[List[_Entry]] = deque()
        self._wake = asyncio.Event()
        self._stopping = False
        self._runner: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="nachos-serve-pool"
        )

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    async def start(self) -> None:
        self._runner = asyncio.create_task(self._run(), name="serve-batcher")

    async def stop(self) -> None:
        """Drain nothing: fail fast on pending work and shut the pool."""
        self._stopping = True
        self._wake.set()
        if self._runner is not None:
            await self._runner
            self._runner = None
        self._executor.shutdown(wait=True)

    async def submit(self, tasks: Sequence[Tuple[str, SimTask]]) -> List[Any]:
        """One request's (workload, system) computations, each given as
        ``(fingerprint, task)`` and deduplicated in flight.

        Returns one item per task, in order: the
        :class:`~repro.experiments.common.SystemRun`, or the
        :class:`ServeTaskError` it failed with.
        """
        if self._stopping:
            stopping = {"kind": "shutdown", "message": "daemon stopping"}
            return [ServeTaskError(stopping) for _ in tasks]
        loop = asyncio.get_running_loop()
        futures = []
        group: List[_Entry] = []
        for fingerprint, task in tasks:
            self.stats.tasks_submitted += 1
            entry = self._inflight.get(fingerprint)
            if entry is not None:
                self.stats.tasks_deduped += 1
            else:
                future = loop.create_future()
                # Retrieve exceptions even if every waiter got cancelled,
                # so an abandoned failure never warns at GC time.
                future.add_done_callback(
                    lambda f: f.exception() if not f.cancelled() else None
                )
                entry = _Entry(fingerprint=fingerprint, task=task, future=future)
                self._inflight[fingerprint] = entry
                group.append(entry)
            futures.append(entry.future)
        if group:
            self._pending.append(group)
            self._wake.set()
        # shield(): cancelling one waiter must not cancel the shared
        # computation other waiters are attached to.
        return await asyncio.gather(
            *(asyncio.shield(f) for f in futures), return_exceptions=True
        )

    # -- dispatch loop --------------------------------------------------
    async def _run(self) -> None:
        while True:
            if not self._pending:
                if self._stopping:
                    break
                await self._wake.wait()
                self._wake.clear()
                continue
            if self._stopping:
                self._fail_pending("daemon stopping")
                break
            await self._dispatch(self._next_batch())
        self._fail_pending("daemon stopped")

    def _next_batch(self) -> List[_Entry]:
        """The oldest pending submits whose tasks fit in :data:`MAX_BATCH`
        (at least one submit, whatever its size), never split."""
        batch = self._pending.popleft()
        while self._pending and len(batch) + len(self._pending[0]) <= MAX_BATCH:
            batch = batch + self._pending.popleft()
        return batch

    def _fail_pending(self, message: str) -> None:
        for group in self._pending:
            for entry in group:
                self._inflight.pop(entry.fingerprint, None)
                if not entry.future.done():
                    entry.future.set_exception(
                        ServeTaskError({"kind": "shutdown", "message": message})
                    )
        self._pending.clear()

    async def _dispatch(self, batch: List[_Entry]) -> None:
        tasks = [entry.task for entry in batch]
        self.stats.batches += 1
        self.stats.tasks_batched += len(batch)
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        loop = asyncio.get_running_loop()
        try:
            # The module global, looked up per batch: perfbench rebinds it.
            outcome = await loop.run_in_executor(
                self._executor, lambda: run_tasks_detailed(tasks, jobs=self.jobs)
            )
        except Exception as exc:  # supervisor itself broke: fail the batch
            for entry in batch:
                self._inflight.pop(entry.fingerprint, None)
                if not entry.future.done():
                    entry.future.set_exception(
                        ServeTaskError(
                            {"kind": "supervisor", "message": str(exc)}
                        )
                    )
            return
        self.stats.retries += outcome.retries
        failures = {f.index: f.as_dict() for f in outcome.failures}
        for i, entry in enumerate(batch):
            self._inflight.pop(entry.fingerprint, None)
            if entry.future.done():
                continue
            result = outcome.results[i]
            if result is None:
                self.stats.tasks_failed += 1
                entry.future.set_exception(ServeTaskError(failures.get(i)))
            else:
                entry.future.set_result(result)
