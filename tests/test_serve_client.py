"""Edge cases of :class:`repro.serve.client.ServeClient`.

The client is the only thing between a caller and a daemon mid-restart,
a half-dead socket, or a proxy mangling bodies — each of those must
surface as a typed :class:`ServeError` (or the refusal itself), never
a hang or a bare ``json`` traceback.  The malformed-wire tests run
against a one-shot raw-socket server so the exact bytes on the wire
are the test's, not ``http.server``'s.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.serve import NachosServeDaemon, ServeClient, ServeError


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _one_shot_server(raw: bytes) -> int:
    """Serve exactly *raw* to the first connection, then close."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    port = sock.getsockname()[1]

    def serve():
        conn, _ = sock.accept()
        try:
            conn.recv(65536)
            conn.sendall(raw)
        finally:
            conn.close()
            sock.close()

    threading.Thread(target=serve, daemon=True).start()
    return port


def _response(body: bytes, headers: str = "") -> bytes:
    return (
        "HTTP/1.1 200 OK\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{headers}"
        "Connection: close\r\n\r\n"
    ).encode("ascii") + body


# -- connection refused ---------------------------------------------------
def test_connection_refused_without_retries_raises_immediately():
    """No daemon listening: the refusal surfaces at once, unretried."""
    client = ServeClient(port=_free_port())
    t0 = time.perf_counter()
    with pytest.raises(ConnectionRefusedError):
        client.healthz()
    assert time.perf_counter() - t0 < 5.0


# -- polling across a daemon restart ------------------------------------
def test_poll_unknown_request_id_after_restart_is_a_clean_404():
    """Request records are in-memory; after a restart an old id must
    answer 404 (resubmit-by-content is the durable path, and it is —
    the cache makes the resubmit instant)."""
    first = NachosServeDaemon(port=0, quiet=True)
    thread = first.serve_in_thread()
    try:
        client = ServeClient(port=first.port)
        done = client.submit(
            "gather", systems=["nachos"], invocations=3, wait=True,
            wait_timeout=60,
        )
        request_id = done["request_id"]
        client.close()
    finally:
        first.request_shutdown()
        thread.join(timeout=30)

    second = NachosServeDaemon(port=0, quiet=True)
    thread = second.serve_in_thread()
    try:
        client = ServeClient(port=second.port)
        with pytest.raises(ServeError) as excinfo:
            client.poll(request_id)
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.result(request_id)
        assert excinfo.value.status == 404
        # Same *content* resubmitted gets the same id back, served warm.
        again = client.submit(
            "gather", systems=["nachos"], invocations=3, wait=True,
            wait_timeout=60,
        )
        assert again["request_id"] == request_id
        assert again["results"] == done["results"]
        client.close()
    finally:
        second.request_shutdown()
        thread.join(timeout=30)


# -- malformed response bodies ------------------------------------------
def test_oversized_declared_body_is_rejected_before_download():
    port = _one_shot_server(
        b"HTTP/1.1 200 OK\r\nContent-Length: 999999999999\r\n"
        b"Connection: close\r\n\r\n"
    )
    client = ServeClient(port=port, timeout=5)
    with pytest.raises(ServeError, match="too large"):
        client.healthz()


def test_truncated_chunked_body_is_a_typed_error():
    # Chunked framing that declares 0x100 bytes then hangs up mid-chunk.
    port = _one_shot_server(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
        b"Connection: close\r\n\r\n100\r\n{\"partial\": tru"
    )
    client = ServeClient(port=port, timeout=5)
    with pytest.raises(ServeError, match="truncated response body"):
        client.healthz()


def test_non_json_body_surfaces_with_preview():
    port = _one_shot_server(_response(b"<html>proxy error page</html>"))
    client = ServeClient(port=port, timeout=5)
    with pytest.raises(ServeError, match="not valid JSON") as excinfo:
        client.healthz()
    assert "proxy error" in excinfo.value.payload["preview"]


def test_non_object_json_body_is_rejected():
    port = _one_shot_server(_response(b"[1, 2, 3]"))
    client = ServeClient(port=port, timeout=5)
    with pytest.raises(ServeError, match="not a JSON object"):
        client.healthz()


def test_undecodable_bytes_are_rejected_not_crashed():
    port = _one_shot_server(_response(b"\xff\xfe\x00garbage\x80"))
    client = ServeClient(port=port, timeout=5)
    with pytest.raises(ServeError, match="not valid JSON"):
        client.healthz()


# -- keep-alive -----------------------------------------------------------
def test_idle_connection_closed_by_daemon_reconnects_once(monkeypatch):
    """The daemon hangs up a connection idle for ``_READ_TIMEOUT``; the
    client's next request finds it closed and succeeds on a new one."""
    from repro.serve import daemon as daemon_module

    monkeypatch.setattr(daemon_module, "_READ_TIMEOUT", 0.2)
    d = NachosServeDaemon(port=0, quiet=True)
    thread = d.serve_in_thread()
    try:
        client = ServeClient(port=d.port, timeout=5)
        client.healthz()
        deadline = time.monotonic() + 10
        while d._connections and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not d._connections, "the idle connection was not closed"
        assert client._local.conn.sock is not None  # the client has not noticed
        assert client.healthz()["ok"] is True
        assert client.metrics()["serve.connections"]["value"] == 2
        client.close()
    finally:
        d.request_shutdown()
        thread.join(timeout=30)


def test_shutdown_with_idle_keep_alive_connection_is_prompt():
    """An idle keep-alive connection neither delays the stop (it would
    wait out ``_READ_TIMEOUT``) nor outlives it."""
    d = NachosServeDaemon(port=0, quiet=True)
    thread = d.serve_in_thread()
    client = ServeClient(port=d.port)
    client.healthz()  # leaves the connection open and idle
    sock = client._local.conn.sock
    t0 = time.perf_counter()
    d.request_shutdown()
    thread.join(timeout=20)
    assert not thread.is_alive()
    assert time.perf_counter() - t0 < 5.0
    sock.settimeout(5)
    assert sock.recv(1) == b""
    client.close()
