"""In-flight dedup + micro-batching into the supervised worker pool.

The :class:`Batcher` is the seam between the asyncio daemon and the
PR-4 process-pool runtime (:func:`repro.runtime.executor.run_tasks_detailed`):

* **Dedup by fingerprint.**  Each submitted task carries its content
  fingerprint; a second submit of an in-flight fingerprint *attaches*
  to the running computation instead of queueing a duplicate — the
  speculative-allocation idea from the LSQ literature applied to
  requests: claim the slot first, compute once.
* **Micro-batching.**  Pending tasks accumulate for :data:`BATCH_WINDOW`
  seconds (and while a previous batch occupies the pool), then ship as
  one ``run_tasks_detailed`` call of at most :data:`MAX_BATCH` tasks —
  one supervised pool dispatch per burst, not per request.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runtime.executor import SimTask, run_tasks_detailed

#: Seconds pending submissions accumulate before one pool dispatch.
BATCH_WINDOW = 0.01
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
    submitters: int = 1


@dataclass
class BatcherStats:
    """Monotonic counters the daemon folds into its metrics registry."""

    tasks_submitted: int = 0
    tasks_deduped: int = 0
    tasks_failed: int = 0
    batches: int = 0
    retries: int = 0
    batch_sizes: List[int] = field(default_factory=list)


class Batcher:
    """Fingerprint-deduplicating micro-batcher over the supervised pool."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs
        self.stats = BatcherStats()
        self._inflight: Dict[str, _Entry] = {}
        self._pending: List[_Entry] = []
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

    async def submit(self, fingerprint: str, task: SimTask) -> Any:
        """One (workload, system) computation, deduplicated in flight.

        Returns the :class:`~repro.experiments.common.SystemRun`;
        raises :class:`ServeTaskError` on terminal failure.
        """
        if self._stopping:
            raise ServeTaskError({"kind": "shutdown", "message": "daemon stopping"})
        self.stats.tasks_submitted += 1
        entry = self._inflight.get(fingerprint)
        if entry is not None:
            entry.submitters += 1
            self.stats.tasks_deduped += 1
        else:
            future = asyncio.get_running_loop().create_future()
            # Retrieve exceptions even if every waiter got cancelled, so
            # an abandoned failure never warns at GC time.
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            entry = _Entry(fingerprint=fingerprint, task=task, future=future)
            self._inflight[fingerprint] = entry
            self._pending.append(entry)
            self._wake.set()
        # shield(): cancelling one waiter must not cancel the shared
        # computation other waiters are attached to.
        return await asyncio.shield(entry.future)

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
            await asyncio.sleep(BATCH_WINDOW)  # gather the burst
            batch = self._pending[:MAX_BATCH]
            del self._pending[: len(batch)]
            await self._dispatch(batch)
        self._fail_pending("daemon stopped")

    def _fail_pending(self, message: str) -> None:
        for entry in self._pending:
            self._inflight.pop(entry.fingerprint, None)
            if not entry.future.done():
                entry.future.set_exception(
                    ServeTaskError({"kind": "shutdown", "message": message})
                )
        self._pending.clear()

    async def _dispatch(self, batch: List[_Entry]) -> None:
        tasks = [entry.task for entry in batch]
        self.stats.batches += 1
        self.stats.batch_sizes.append(len(batch))
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                self._executor,
                lambda: run_tasks_detailed(tasks, jobs=self.jobs),
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
