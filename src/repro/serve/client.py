"""Stdlib HTTP client for ``nachos-serve`` (TCP or unix socket).

A :class:`ServeClient` keeps one connection per thread and asks for
``Connection: keep-alive``, so a thread's requests share one TCP
connect; the daemon closes a connection that stays idle for 30 s.  It
is thread-safe: a load generator drives one instance from many
threads, and :meth:`ServeClient.close` closes every thread's
connection.  If the daemon has closed a reused connection, the request
is sent again once on a fresh one; a submit is idempotent by request
id, so the resend is safe.

A refused connect (no daemon listening) raises at once; the caller
decides whether to wait for a restarting daemon.  Response bodies are
capped at ``MAX_RESPONSE_BYTES``, and a truncated or non-JSON body
surfaces as a :class:`ServeError` (carrying a preview) instead of a
bare ``json`` traceback.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional

#: Ceiling on a response body; the daemon's payloads are small JSON, so
#: anything larger is a protocol violation, not data.
MAX_RESPONSE_BYTES = 1 << 26


class ServeError(RuntimeError):
    """A non-2xx response (or an unusable body) from the daemon."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")


class _UnixHTTPConnection(http.client.HTTPConnection):
    """HTTP/1.1 over an ``AF_UNIX`` stream socket."""

    def __init__(self, path: str, timeout: Optional[float] = None) -> None:
        super().__init__("localhost", timeout=timeout)
        self._unix_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._unix_path)
        self.sock = sock


class ServeClient:
    """Talk to a running daemon: submit, poll, fetch, introspect."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8737,
        socket_path: Optional[str] = None,
        timeout: float = 600.0,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.timeout = timeout
        self._local = threading.local()  # .conn: this thread's connection
        self._lock = threading.Lock()
        self._conns: List[http.client.HTTPConnection] = []  # every thread's

    def _new_connection(self) -> http.client.HTTPConnection:
        if self.socket_path:
            return _UnixHTTPConnection(self.socket_path, timeout=self.timeout)
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._new_connection()
            with self._lock:
                self._conns.append(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connection.  Each thread that used the
        client holds one open until then; a later request reconnects."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def _request(
        self, method: str, target: str, body: Optional[dict] = None,
        accept: tuple = (200,),
    ) -> Dict[str, Any]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Connection": "keep-alive"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, target, body=data, headers=headers)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # The daemon closed the idle connection: send once more
                # on a fresh one.
                conn.close()
                conn.request(method, target, body=data, headers=headers)
                response = conn.getresponse()
            status, payload = response.status, self._read_payload(response)
        except BaseException:
            conn.close()  # its state is unknown; the next request reconnects
            raise
        if status not in accept:
            raise ServeError(status, payload)
        payload["_http_status"] = status
        return payload

    @staticmethod
    def _read_payload(response: http.client.HTTPResponse) -> Dict[str, Any]:
        declared = response.getheader("Content-Length")
        if declared is not None and declared.isdigit() and (
            int(declared) > MAX_RESPONSE_BYTES
        ):
            raise ServeError(
                response.status,
                {"error": f"response body too large ({declared} bytes)"},
            )
        try:
            raw = response.read(MAX_RESPONSE_BYTES + 1)
        except http.client.IncompleteRead as exc:
            raw = exc.partial
            raise ServeError(
                response.status,
                {
                    "error": "truncated response body",
                    "preview": repr(raw[:120]),
                },
            ) from None
        if len(raw) > MAX_RESPONSE_BYTES:
            raise ServeError(
                response.status, {"error": "response body too large"}
            )
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServeError(
                response.status,
                {
                    "error": "response body is not valid JSON",
                    "preview": repr(raw[:120]),
                },
            ) from None
        if not isinstance(payload, dict):
            raise ServeError(
                response.status, {"error": "response is not a JSON object"}
            )
        return payload

    # -- endpoints ------------------------------------------------------
    def submit(
        self,
        region: str,
        systems: Optional[List[str]] = None,
        invocations: Optional[int] = None,
        wait: bool = False,
        wait_timeout: Optional[float] = None,
        **extra: Any,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"region": region, **extra}
        if systems is not None:
            body["systems"] = systems
        if invocations is not None:
            body["invocations"] = invocations
        if wait:
            body["wait"] = True
            if wait_timeout is not None:
                body["wait_timeout"] = wait_timeout
        return self._request("POST", "/submit", body, accept=(200, 202))

    def poll(self, request_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/poll?id={request_id}")

    def result(self, request_id: str) -> Dict[str, Any]:
        """The payload (``status`` tells done/failed); 202 while running."""
        return self._request(
            "GET", f"/result?id={request_id}", accept=(200, 202)
        )

    def wait(
        self, request_id: str, timeout: float = 600.0, interval: float = 0.05
    ) -> Dict[str, Any]:
        """Poll ``/result`` until the request completes."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.result(request_id)
            if payload["_http_status"] == 200:
                return payload
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"request {request_id} still running after {timeout}s"
                )
            time.sleep(interval)

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")
