"""``nachos-serve`` — the long-running disambiguation service.

An asyncio daemon that keeps the whole stack hot — workload graphs,
compile results, the content-addressed result cache, and the supervised
worker pool — so a disambiguation query costs a cache lookup or one
pooled simulation instead of a full process startup + compile.

Endpoints (JSON over HTTP/1.1, TCP or a unix socket):

=======================  ==============================================
``POST /submit``         submit a request (see
                         :mod:`repro.serve.protocol`); returns
                         ``{"request_id", "status", "deduped"}``.  With
                         ``"wait": true`` the response long-polls until
                         the request finishes and carries the payload.
``GET /poll?id=FP``      ``{"request_id", "status"}`` — status is
                         ``running``, ``done``, or ``failed``
``GET /result?id=FP``    the result payload (``202`` while running,
                         ``404`` for unknown/evicted ids)
``GET /metrics``         the request-metrics registry + read-through
                         cache counters, JSON
``GET /healthz``         liveness + uptime
``POST /shutdown``       graceful stop
=======================  ==============================================

A request with ``Connection: keep-alive`` keeps its connection open for
the next request until it has been idle for ``_READ_TIMEOUT`` seconds;
any other request is answered ``Connection: close`` and its connection
closed.

Dedup happens twice: identical *requests* attach to the retained
request record, and identical *(region, system)* tasks across different
requests attach in-flight inside the :class:`~repro.serve.batcher.Batcher`.
Completed results are served read-through from the shared
:class:`~repro.runtime.cache.ResultCache`, so even a daemon restart
answers repeat queries from disk.

The fault story is the sweep runtime's: a pool worker that dies
mid-task is replaced and its task requeued once, and any other fault
fails the task at once (the simulator is deterministic, so a retry
would fail the same way).  A ``NACHOS_CHAOS`` spec in the daemon's
environment is inherited by pool workers — a campaign of ``crash@``
points that each kill a task's worker once must return results
byte-identical to a fault-free daemon (``tests/test_serve.py`` checks
it).  Do not use the chaos ``abort@`` point with the
daemon: it SIGKILLs the supervisor, i.e. the daemon itself.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.obs.metrics import MetricsRegistry, metrics_from_cache
from repro.serve.batcher import Batcher, ServeTaskError
from repro.serve.protocol import (
    SERVE_SCHEMA,
    ProtocolError,
    ServeRequest,
    parse_request,
    run_payload,
    workload_for,
)

#: Ceiling on ``"wait": true`` long-polls, so a stuck request cannot pin
#: a connection forever (the client can always re-poll).
MAX_WAIT_SECONDS = 300.0

_MAX_BODY_BYTES = 1 << 20
#: Seconds a read may wait: for a request's next line, and so also how
#: long an idle keep-alive connection stays open.
_READ_TIMEOUT = 30.0

RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass
class _RequestRecord:
    request: ServeRequest
    status: str = RUNNING
    payload: Optional[Dict[str, Any]] = None
    created: float = field(default_factory=time.perf_counter)
    event: asyncio.Event = field(default_factory=asyncio.Event)


class NachosServeDaemon:
    """The serve daemon: HTTP front, batcher back, metrics throughout."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8737,
        socket_path: Optional[str] = None,
        jobs: Optional[int] = None,
        retain_results: int = 1024,
        quiet: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.jobs = jobs
        self.retain_results = max(1, retain_results)
        self.quiet = quiet
        self.metrics = MetricsRegistry()
        self.requests: "OrderedDict[str, _RequestRecord]" = OrderedDict()
        self.batcher: Optional[Batcher] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started_monotonic = 0.0
        self._connections: set = set()  # open client StreamWriters
        self._stopping = False

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        from repro.runtime.cache import get_cache, sweep_stale_tmp_once

        # Reclaim crash debris (tmp files from previously killed
        # writers) before taking traffic — the durability layer is hot
        # 24/7 under this daemon, so boot is the natural sweep point.
        # Batches then walk a store again only after a worker kill.
        sweep_stale_tmp_once(get_cache().root)

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.batcher = Batcher(jobs=self.jobs)
        await self.batcher.start()
        if self.socket_path:
            self._server = await asyncio.start_unix_server(
                self._client_connected, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._client_connected, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        if not self.quiet:
            print(f"[nachos-serve] listening on {self.address}", flush=True)

    @property
    def address(self) -> str:
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        self._stopping = True
        if self._server is not None:
            # Stop accepting first, and let a connection accepted in
            # this loop turn build its transport before the listener
            # closes: on Python 3.11 a transport built after close()
            # fails to attach and leaks its socket, and the client then
            # waits on it.  Two turns: one for the accept, one for the
            # transport it schedules.
            for sock in self._server.sockets:
                self._loop.remove_reader(sock.fileno())
            for _ in range(2):
                await asyncio.sleep(0)
            self._server.close()
        # Closing the listener leaves accepted connections open (an idle
        # keep-alive one, or a long-poll), and their sockets would
        # outlive the loop with the client still waiting on them.  Hang
        # up instead, so the client sees a disconnect and can go
        # elsewhere.  This comes before wait_closed(), which on newer
        # Pythons waits for every accepted connection to close.
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.batcher is not None:
            await self.batcher.stop()
        if self.socket_path:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    async def serve_forever(self, ready: Optional[threading.Event] = None) -> None:
        await self.start()
        if ready is not None:
            ready.set()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.stop()

    def run(self, ready: Optional[threading.Event] = None) -> None:
        asyncio.run(self.serve_forever(ready))

    def request_shutdown(self) -> None:
        """Thread-safe graceful stop (tests and signal handlers)."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    def serve_in_thread(self) -> threading.Thread:
        """Boot the daemon on a background thread; returns once listening."""
        ready = threading.Event()
        thread = threading.Thread(
            target=self.run, args=(ready,), name="nachos-serve", daemon=True
        )
        thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("nachos-serve daemon failed to start")
        return thread

    # -- request execution ---------------------------------------------
    async def _run_request(self, record: _RequestRecord) -> None:
        """Submit all of the request's tasks in one batcher call, so they
        ship in one batch; the pool's supervisor serves a cached task
        itself, forking no worker."""
        assert self.batcher is not None
        from repro.runtime.executor import SimTask

        req = record.request
        started = time.perf_counter()
        workload = workload_for(req.region)
        runs = await self.batcher.submit([
            (fp, SimTask(workload=workload, system=system,
                         invocations=req.invocations, check=req.check,
                         warm=req.warm))
            for system, fp in zip(req.systems, req.task_fps)
        ])
        results: Dict[str, Any] = {}
        failed: Dict[str, Any] = {}
        for system, run in zip(req.systems, runs):
            if isinstance(run, ServeTaskError):
                failed[system] = run.failure
            elif isinstance(run, BaseException):
                failed[system] = {"kind": "error", "message": str(run)}
            else:
                results[system] = run_payload(run)
        elapsed = time.perf_counter() - started
        record.status = FAILED if failed else DONE
        record.payload = {
            "schema": SERVE_SCHEMA,
            "request_id": req.request_id,
            "status": record.status,
            "region": req.region,
            "invocations": req.invocations,
            "results": results,
            "failed": failed,
            "elapsed_seconds": elapsed,
        }
        self.metrics.counter(
            "serve.requests_failed" if failed else "serve.requests_done"
        ).inc()
        record.event.set()

    def _retain(self, request_id: str, record: _RequestRecord) -> None:
        self.requests[request_id] = record
        while len(self.requests) > self.retain_results:
            for key, old in self.requests.items():
                if old.status != RUNNING:
                    del self.requests[key]
                    break
            else:
                break  # everything is running; nothing evictable

    # -- HTTP front -----------------------------------------------------
    def _client_connected(self, reader, writer):
        # Not a coroutine function: asyncio calls this synchronously on
        # accept, so stop() can hang up on a connection whose handler
        # never got to run, and one accepted mid-stop is hung up here.
        if self._stopping:
            writer.close()
            return None
        self.metrics.counter("serve.connections").inc()
        self._connections.add(writer)
        return self._serve_connection(reader, writer)

    async def _serve_connection(self, reader, writer) -> None:
        """Answer requests on one connection until a request does not ask
        for keep-alive, the client hangs up or stays idle for
        ``_READ_TIMEOUT`` seconds, or the daemon stops."""
        try:
            while await self._respond(reader, writer) and not self._stopping:
                pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
            except OSError:
                pass

    async def _respond(self, reader, writer) -> bool:
        """Read one request and answer it; return whether the connection
        stays open for the next one."""
        try:
            status, payload, keep_alive = await self._handle_one(reader)
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            return False
        except ProtocolError as exc:  # the request was not read whole
            status, payload, keep_alive = 400, {"error": str(exc)}, False
        except Exception as exc:  # never let a handler kill the daemon
            self.metrics.counter("serve.internal_errors").inc()
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            keep_alive = False
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  500: "Internal Server Error"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return keep_alive

    async def _handle_one(self, reader) -> Tuple[int, Dict[str, Any], bool]:
        """One request: its status, payload, and whether it asked for
        ``Connection: keep-alive``."""
        line = await asyncio.wait_for(reader.readline(), _READ_TIMEOUT)
        if not line:
            raise ConnectionError("empty request")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ProtocolError("malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await asyncio.wait_for(reader.readline(), _READ_TIMEOUT)
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ProtocolError("bad Content-Length")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise ProtocolError("request body too large")
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "").lower() == "keep-alive"
        path, _, query = target.partition("?")
        params = {k: v[-1] for k, v in parse_qs(query).items()}
        try:
            status, payload = await self._route(method.upper(), path, params, body)
        except ProtocolError as exc:  # read whole, so the connection is fine
            status, payload = 400, {"error": str(exc)}
        return status, payload, keep_alive

    async def _route(
        self, method: str, path: str, params: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/submit":
            if method != "POST":
                return 405, {"error": "POST /submit"}
            return await self._handle_submit(body)
        if path == "/poll":
            return self._handle_poll(params)
        if path == "/result":
            return self._handle_result(params)
        if path == "/metrics":
            return 200, self.metrics_snapshot()
        if path == "/healthz":
            return 200, {
                "ok": True,
                "schema": SERVE_SCHEMA,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
            }
        if path == "/shutdown":
            if method != "POST":
                return 405, {"error": "POST /shutdown"}
            assert self._stop_event is not None
            self._stop_event.set()
            return 200, {"ok": True, "stopping": True}
        return 404, {"error": f"unknown endpoint {path}"}

    async def _handle_submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            raise ProtocolError("request body is not valid JSON")
        request = parse_request(payload)
        self.metrics.counter("serve.requests").inc()

        record = self.requests.get(request.request_id)
        deduped = record is not None and record.status != FAILED
        if deduped:
            # Attach: the running/done record answers for this submit
            # too.  (Done records are the retained-result fast path.)
            self.requests.move_to_end(request.request_id)
            self.metrics.counter("serve.requests_deduped").inc()
        else:
            record = _RequestRecord(request=request)
            self._retain(request.request_id, record)
            asyncio.get_running_loop().create_task(self._run_request(record))

        if request.wait:
            wait_timeout = min(request.wait_timeout, MAX_WAIT_SECONDS)
            try:
                await asyncio.wait_for(record.event.wait(), wait_timeout)
            except asyncio.TimeoutError:
                pass
        if record.status != RUNNING and record.payload is not None:
            response = dict(record.payload)
            response["deduped"] = deduped
            return 200, response
        return 202, {
            "schema": SERVE_SCHEMA,
            "request_id": request.request_id,
            "status": record.status,
            "deduped": deduped,
        }

    def _record_for(self, params: Dict[str, str]) -> Optional[_RequestRecord]:
        request_id = params.get("id", "")
        if not request_id:
            raise ProtocolError("missing ?id=<request_id>")
        return self.requests.get(request_id)

    def _handle_poll(self, params) -> Tuple[int, Dict[str, Any]]:
        record = self._record_for(params)
        if record is None:
            return 404, {"error": "unknown request id"}
        return 200, {
            "request_id": record.request.request_id,
            "status": record.status,
            "age_seconds": time.perf_counter() - record.created,
        }

    def _handle_result(self, params) -> Tuple[int, Dict[str, Any]]:
        record = self._record_for(params)
        if record is None:
            return 404, {"error": "unknown request id"}
        if record.status == RUNNING or record.payload is None:
            return 202, {
                "request_id": record.request.request_id,
                "status": record.status,
            }
        self.metrics.counter("serve.results_served").inc()
        return 200, record.payload

    # -- telemetry ------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """One JSON view: request metrics, batcher counters, cache
        read-through counters, and liveness gauges.  Every source is a
        running count, so a snapshot costs the same at any uptime."""
        snap = MetricsRegistry()
        snap.merge(self.metrics)
        if self.batcher is not None:
            stats = self.batcher.stats
            snap.counter("serve.tasks_submitted").inc(stats.tasks_submitted)
            snap.counter("serve.tasks_deduped").inc(stats.tasks_deduped)
            snap.counter("serve.tasks_failed").inc(stats.tasks_failed)
            snap.counter("serve.batches").inc(stats.batches)
            snap.counter("serve.pool_retries").inc(stats.retries)
            snap.gauge("serve.inflight_tasks").set(self.batcher.inflight)
        metrics_from_cache(registry=snap, prefix="cache")
        snap.gauge("serve.retained_requests").set(len(self.requests))
        snap.gauge("serve.uptime_seconds").set(
            time.monotonic() - self._started_monotonic
        )
        out = snap.as_dict()
        if self.batcher is not None:
            out["serve.batch_size"] = self.batcher.stats.batch_size()
        return out


# ----------------------------------------------------------------------
# CLI entry point (`nachos-serve`, also `nachos-repro serve ...`)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nachos-serve",
        description="Long-running NACHOS disambiguation service "
        "(submit/poll/result over HTTP or a unix socket).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8737,
        help="TCP port (0 = ephemeral; the chosen port is announced and "
        "written to --ready-file)",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker-pool width per batch (default $NACHOS_JOBS or 1)",
    )
    parser.add_argument(
        "--retain", type=int, default=1024, metavar="N",
        help="completed request payloads kept for /result (LRU, default 1024)",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write {pid, host, port, socket} JSON here once listening "
        "(harness handshake)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    daemon = NachosServeDaemon(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        jobs=args.jobs,
        retain_results=args.retain,
        quiet=args.quiet,
    )

    async def _serve() -> None:
        await daemon.start()
        if args.ready_file:
            ready = {
                "pid": os.getpid(),
                "host": daemon.host,
                "port": daemon.port,
                "socket": daemon.socket_path,
                "address": daemon.address,
            }
            # Atomic publish: a harness polling for this file must never
            # observe a torn JSON half-write (parallel CI boots many
            # daemons and reads these under load).
            tmp = f"{args.ready_file}.tmp-{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(ready, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, args.ready_file)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, daemon._stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass
        await daemon._stop_event.wait()
        await daemon.stop()

    asyncio.run(_serve())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
