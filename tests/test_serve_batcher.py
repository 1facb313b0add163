"""The serve batcher's dispatch rules and the daemon's memory bounds.

The :class:`~repro.serve.batcher.Batcher` ships pending work as soon as
its pool thread is free, with no wait: a request's tasks enter one batch
because they are submitted in one call, and work that arrives while a
batch runs ships as the next batch.  These tests hold the pool call on
an event so "while a batch runs" is a fact of the test, not a race.
"""

from __future__ import annotations

import asyncio
import pickle
import threading

from repro.experiments import common
from repro.runtime.executor import SimTask, SweepOutcome
from repro.serve import NachosServeDaemon, ServeClient
from repro.serve import batcher as batcher_module
from repro.serve.batcher import Batcher


class _HeldPool:
    """A stand-in for ``run_tasks_detailed`` that records each batch's
    task systems and holds every call until :meth:`release`."""

    def __init__(self) -> None:
        self.batches = []
        self.started = threading.Event()
        self._go = threading.Event()

    def __call__(self, tasks, jobs=None):
        self.batches.append([task.system for task in tasks])
        self.started.set()
        self._go.wait(timeout=30)
        return SweepOutcome(results=[f"run:{t.system}" for t in tasks])

    def release(self) -> None:
        self._go.set()


def _task(system: str) -> SimTask:
    return SimTask(workload=None, system=system, invocations=1)


def _submit(batcher: Batcher, *systems: str):
    return batcher.submit([(f"fp-{s}", _task(s)) for s in systems])


async def _wait_for(event: threading.Event) -> None:
    while not event.is_set():
        await asyncio.sleep(0.001)


def test_work_submitted_while_a_batch_runs_ships_as_the_next_batch(monkeypatch):
    pool = _HeldPool()
    monkeypatch.setattr(batcher_module, "run_tasks_detailed", pool)

    async def scenario():
        batcher = Batcher()
        await batcher.start()
        first = asyncio.ensure_future(_submit(batcher, "a"))
        await _wait_for(pool.started)  # batch 1 is in the pool now
        second = asyncio.ensure_future(_submit(batcher, "b", "c"))
        third = asyncio.ensure_future(_submit(batcher, "d"))
        await asyncio.sleep(0.01)
        assert pool.batches == [["a"]], "later work must wait for the pool"
        pool.release()
        results = await asyncio.gather(first, second, third)
        await batcher.stop()
        return results, batcher.stats

    results, stats = asyncio.run(scenario())
    assert pool.batches == [["a"], ["b", "c", "d"]]
    assert (stats.batches, stats.tasks_batched, stats.largest_batch) == (2, 4, 3)
    assert results == [["run:a"], ["run:b", "run:c"], ["run:d"]]


def test_a_submit_is_never_split_across_batches(monkeypatch):
    """Whole submits fill a batch up to MAX_BATCH tasks; a submit that
    would overflow it waits for the next batch instead of splitting."""
    pool = _HeldPool()
    monkeypatch.setattr(batcher_module, "run_tasks_detailed", pool)
    monkeypatch.setattr(batcher_module, "MAX_BATCH", 3)

    async def scenario():
        batcher = Batcher()
        await batcher.start()
        held = asyncio.ensure_future(_submit(batcher, "x"))
        await _wait_for(pool.started)
        queued = [
            asyncio.ensure_future(_submit(batcher, *systems))
            for systems in (("a", "b"), ("c", "d"), ("e",), ("f", "g", "h", "i"))
        ]
        await asyncio.sleep(0.01)
        pool.release()
        await asyncio.gather(held, *queued)
        await batcher.stop()

    asyncio.run(scenario())
    assert pool.batches == [
        ["x"], ["a", "b"], ["c", "d", "e"], ["f", "g", "h", "i"],
    ]


def test_in_flight_duplicates_attach_to_one_task(monkeypatch):
    pool = _HeldPool()
    monkeypatch.setattr(batcher_module, "run_tasks_detailed", pool)

    async def scenario():
        batcher = Batcher()
        await batcher.start()
        first = asyncio.ensure_future(_submit(batcher, "a", "b"))
        await _wait_for(pool.started)
        again = asyncio.ensure_future(_submit(batcher, "b", "c"))
        await asyncio.sleep(0.01)
        pool.release()
        results = await asyncio.gather(first, again)
        await batcher.stop()
        return results, batcher.stats

    results, stats = asyncio.run(scenario())
    assert pool.batches == [["a", "b"], ["c"]]
    assert results == [["run:a", "run:b"], ["run:b", "run:c"]]
    assert (stats.tasks_submitted, stats.tasks_deduped) == (4, 1)


def test_two_system_request_ships_as_one_batch(fresh_store):
    """No window: the request's two tasks still share one batch."""
    fresh_store()
    d = NachosServeDaemon(port=0, quiet=True)
    thread = d.serve_in_thread()
    try:
        client = ServeClient(port=d.port)
        response = client.submit(
            "gather", systems=["nachos", "opt-lsq"], invocations=3, wait=True,
        )
        assert response["status"] == "done"
        sizes = client.metrics()["serve.batch_size"]
        client.close()
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
    assert (sizes["count"], sizes["max"]) == (1, 2)


def test_metrics_state_stays_fixed_as_requests_accumulate(fresh_store):
    """A long-lived daemon keeps running totals behind ``/metrics``, not
    a sample per request or per batch: that state is the same size after
    24 requests as after 4, and ``serve.batch_size`` still reports the
    right batch count, mean and largest batch."""
    fresh_store()
    # One retained request: every submit below misses the request table,
    # so each request ships as its own batch (from the cache after the
    # first two).
    d = NachosServeDaemon(port=0, quiet=True, retain_results=1)
    thread = d.serve_in_thread()
    systems = (["nachos", "opt-lsq"], ["nachos"])
    state_sizes = []
    try:
        client = ServeClient(port=d.port)
        for n in range(24):
            response = client.submit(
                "gather", systems=systems[n % 2], invocations=3, wait=True,
            )
            assert response["status"] == "done"
            if n in (3, 23):
                state = (d.metrics, d.batcher.stats)
                state_sizes.append(len(pickle.dumps(state)))
        batch_size = client.metrics()["serve.batch_size"]
        client.close()
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
    assert state_sizes[0] == state_sizes[1]
    assert (batch_size["count"], batch_size["mean"], batch_size["max"]) == (
        24, 1.5, 2
    )


def test_daemon_memory_is_bounded_by_region(fresh_store):
    """Fresh requests for one region at five invocation counts leave,
    after each batch, one trace (address streams + golden result) for
    the region, the newest, and no sim record; the payloads stay with
    the requests."""
    from repro.serve.protocol import workload_for

    fresh_store()
    workload = workload_for("gather")
    d = NachosServeDaemon(port=0, quiet=True)
    thread = d.serve_in_thread()
    try:
        client = ServeClient(port=d.port)
        payloads = {}
        for invocations in (3, 4, 5, 6, 7):
            response = client.submit(
                "gather", systems=["nachos"], invocations=invocations,
                wait=True,
            )
            assert response["status"] == "done"
            payloads[invocations] = response["results"]["nachos"]
            assert not common._sim_memo
            ((envs_fp, _streams, _golden),) = common._trace_memo.values()
            _envs, _wfp, newest = common._prepare(workload, "nachos", invocations)
            assert envs_fp == newest
        assert client.metrics()["serve.batches"]["value"] == 5
        client.close()
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
    direct = common.run_system(workload, "nachos", invocations=6)
    assert payloads[6]["cycles"] == direct.sim.cycles
