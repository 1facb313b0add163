"""End-to-end tests for ``nachos-serve`` against live in-thread daemons.

Every test boots a real daemon (ephemeral TCP port or a unix socket),
drives it through :class:`repro.serve.client.ServeClient`, and shuts it
down — the HTTP parse, the request dedup, the batcher, and the pool
dispatch all run for real.  The restart test boots ``python -m
repro.serve`` as a process, through its ``--ready-file`` handshake.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.serve import (
    NachosServeDaemon,
    ProtocolError,
    ServeClient,
    ServeError,
    parse_request,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def daemon():
    """One live daemon on an ephemeral port; stopped at teardown."""
    d = NachosServeDaemon(port=0, quiet=True)
    thread = d.serve_in_thread()
    try:
        yield d
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


@pytest.fixture
def client(daemon):
    c = ServeClient(port=daemon.port)
    yield c
    c.close()


def test_submit_roundtrip_matches_direct_run(client):
    """The daemon's numbers are ``run_system``'s numbers — same engine,
    same fingerprints, nothing lost over the wire."""
    from repro.experiments.common import run_system
    from repro.obs.runner import resolve_workload

    response = client.submit(
        "gather", systems=["nachos"], invocations=6, wait=True
    )
    assert response["status"] == "done"
    direct = run_system(resolve_workload("gather"), "nachos", invocations=6)
    served = response["results"]["nachos"]
    assert served["cycles"] == direct.sim.cycles
    assert served["energy"] == pytest.approx(direct.sim.total_energy)
    assert served["correct"] is True
    assert served["n_mdes"] == direct.n_mdes


def test_poll_and_result_lifecycle(client):
    submitted = client.submit("scatter", systems=["opt-lsq"], invocations=4)
    request_id = submitted["request_id"]
    payload = client.wait(request_id, timeout=120)
    assert payload["status"] == "done"
    assert client.poll(request_id)["status"] == "done"
    again = client.result(request_id)
    assert again["results"] == payload["results"]


def test_concurrent_duplicates_compute_once(daemon, client):
    """N identical submits racing a slow window: one computation, all
    answered, dedup observable in the daemon's own metrics."""
    n = 6
    responses = [None] * n
    errors = []

    def submit(i):
        try:
            responses[i] = client.submit(
                "stream_triad", systems=["nachos", "opt-lsq"],
                invocations=5, wait=True,
            )
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r["status"] == "done" for r in responses)
    first = responses[0]
    assert all(r["request_id"] == first["request_id"] for r in responses)
    assert all(r["results"] == first["results"] for r in responses)
    metrics = client.metrics()
    assert metrics["serve.requests"]["value"] == n
    # All but the winner attached to an existing record or in-flight
    # task; either dedup level proves single computation.
    deduped = metrics.get("serve.requests_deduped", {}).get("value", 0)
    task_deduped = metrics.get("serve.tasks_deduped", {}).get("value", 0)
    assert deduped + task_deduped >= n - 1
    assert metrics["serve.tasks_submitted"]["value"] - task_deduped == 2


def test_request_id_independent_of_system_order():
    a = parse_request({"region": "gather", "systems": ["nachos", "opt-lsq"]})
    b = parse_request({"region": "gather", "systems": ["opt-lsq", "nachos"]})
    assert a.request_id == b.request_id
    c = parse_request({"region": "gather", "systems": ["nachos"]})
    assert c.request_id != a.request_id


def test_protocol_rejections():
    with pytest.raises(ProtocolError, match="unknown request field"):
        parse_request({"region": "gather", "color": "green"})
    with pytest.raises(ProtocolError, match="required"):
        parse_request({})
    with pytest.raises(ProtocolError, match="unknown system"):
        parse_request({"region": "gather", "systems": ["quantum"]})
    with pytest.raises(ProtocolError, match="invocations"):
        parse_request({"region": "gather", "invocations": 0})
    with pytest.raises(ProtocolError, match="unknown request field.*engine"):
        parse_request({"region": "gather", "engine": "fast"})
    with pytest.raises(ProtocolError, match="unknown region"):
        parse_request({"region": "does-not-exist"})
    with pytest.raises(ProtocolError, match="'wait' must be a boolean"):
        parse_request({"region": "gather", "wait": "yes"})
    for bad in ("abc", float("nan"), float("inf"), -1, True):
        with pytest.raises(ProtocolError, match="wait_timeout"):
            parse_request(
                {"region": "gather", "wait": True, "wait_timeout": bad}
            )


def test_http_error_paths(client):
    with pytest.raises(ServeError) as excinfo:
        client.submit("no-such-region")
    assert excinfo.value.status == 400
    # A malformed long-poll is rejected before its task is launched.
    submitted = client.metrics()["serve.tasks_submitted"]["value"]
    with pytest.raises(ServeError) as excinfo:
        client.submit("gather", systems=["nachos"], invocations=4,
                      wait=True, wait_timeout="abc")
    assert excinfo.value.status == 400
    metrics = client.metrics()
    assert metrics["serve.tasks_submitted"]["value"] == submitted
    assert "serve.internal_errors" not in metrics
    with pytest.raises(ServeError) as excinfo:
        client._request("GET", "/peers")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.poll("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client._request("GET", "/nowhere")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client._request("GET", "/submit")
    assert excinfo.value.status == 405
    health = client.healthz()
    assert health["ok"] is True


def test_engine_field_is_a_400_naming_it(client):
    """The run picks its engine: a request naming one is rejected like
    any unknown field, and the error names the field."""
    with pytest.raises(ServeError) as excinfo:
        client.submit("gather", engine="reference")
    assert excinfo.value.status == 400
    assert excinfo.value.payload["error"] == "unknown request field(s): engine"


def test_check_field_is_a_400_naming_it(client):
    """Every run reports its golden verdict: a request asking to skip or
    keep that report is rejected like any unknown field."""
    for value in (False, True):
        with pytest.raises(ServeError) as excinfo:
            client.submit("gather", systems=["nachos"], check=value)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "unknown request field(s): check"


def test_stop_hangs_up_on_open_connections():
    """A client still connected when the daemon stops (idle, or in a
    long-poll) sees the connection close instead of waiting on a socket
    that no event loop serves any more."""
    d = NachosServeDaemon(port=0, quiet=True)
    thread = d.serve_in_thread()
    sock = socket.create_connection(("127.0.0.1", d.port), timeout=5)
    try:
        time.sleep(0.2)  # let the daemon accept it
        d.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert sock.recv(1) == b""
    finally:
        sock.close()


def test_one_thread_reuses_one_connection(client):
    for _ in range(5):
        client.healthz()
    client.submit("gather", systems=["opt-lsq"], invocations=3, wait=True)
    assert client.metrics()["serve.connections"]["value"] == 1


def test_each_thread_has_its_own_connection(client):
    client.healthz()
    worker = threading.Thread(target=lambda: [client.healthz() for _ in range(3)])
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    client.healthz()
    assert client.metrics()["serve.connections"]["value"] == 2


def _raw_exchange(sock, request: bytes) -> bytes:
    """Send *request*; return the response head and body it gets."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(65536)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(
        [l for l in head.split(b"\r\n") if l.lower().startswith(b"content-length")][0]
        .split(b":")[1]
    )
    while len(body) < length:
        body += sock.recv(65536)
    return head + b"\r\n\r\n" + body


def test_raw_request_without_keep_alive_gets_close_then_eof(daemon):
    """A client that does not ask for keep-alive (curl, a raw socket) is
    answered ``Connection: close`` and hung up on, as it always was."""
    with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
        reply = _raw_exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: close\r\n" in reply
        assert sock.recv(1) == b""


def test_raw_keep_alive_serves_several_requests_on_one_connection(daemon):
    request = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"
    with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
        for _ in range(3):
            reply = _raw_exchange(sock, request)
            assert reply.startswith(b"HTTP/1.1 200 OK")
            assert b"Connection: keep-alive\r\n" in reply
        # A malformed request line cannot be framed: 400, then a close.
        reply = _raw_exchange(sock, b"NONSENSE\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close\r\n" in reply
        assert sock.recv(1) == b""


def test_unix_socket_roundtrip():
    sock_dir = tempfile.mkdtemp(prefix="nachos-sock-")  # short AF_UNIX path
    sock = str(Path(sock_dir) / "serve.sock")
    d = NachosServeDaemon(socket_path=sock, quiet=True)
    thread = d.serve_in_thread()
    try:
        client = ServeClient(socket_path=sock)
        response = client.submit(
            "gather", systems=["opt-lsq"], invocations=4, wait=True
        )
        client.close()
        assert response["status"] == "done"
        assert response["results"]["opt-lsq"]["cycles"] > 0
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
    assert not Path(sock).exists(), "socket file removed on shutdown"


def test_chaos_daemon_results_match_fault_free(monkeypatch, fresh_store):
    """A daemon whose pool workers die under ``NACHOS_CHAOS`` must
    requeue each task once and answer byte-identical to a fault-free
    daemon."""
    request = dict(
        region="scatter", systems=["nachos", "opt-lsq"], invocations=5,
        wait=True,
    )

    clean = NachosServeDaemon(port=0, quiet=True, jobs=2)
    thread = clean.serve_in_thread()
    try:
        baseline_client = ServeClient(port=clean.port)
        baseline = baseline_client.submit(**request)
        baseline_client.close()
    finally:
        clean.request_shutdown()
        thread.join(timeout=30)
    assert baseline["status"] == "done"

    # Both tasks of the request's two-task batch lose their worker once.
    fresh_store()
    monkeypatch.setenv("NACHOS_CHAOS", "crash@0,crash@1")
    chaotic = NachosServeDaemon(port=0, quiet=True, jobs=2)
    thread = chaotic.serve_in_thread()
    try:
        client = ServeClient(port=chaotic.port)
        survived = client.submit(**request)
        retries = client.metrics()["serve.pool_retries"]["value"]
        client.close()
    finally:
        chaotic.request_shutdown()
        thread.join(timeout=30)
    assert survived["status"] == "done"
    assert survived["results"] == baseline["results"]
    assert retries == 2


def _boot_process(work_dir: Path, label: str):
    """``python -m repro.serve`` on an ephemeral port, its result cache in
    ``work_dir/cache`` and no chaos; returns the process and a client
    once the daemon has published its ready file."""
    ready_file = work_dir / f"ready-{label}.json"
    env = dict(os.environ, NACHOS_CACHE_DIR=str(work_dir / "cache"))
    env.pop("NACHOS_CHAOS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    with open(work_dir / f"{label}.log", "w") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "--port", "0",
                "--jobs", "2", "--ready-file", str(ready_file), "--quiet",
            ],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + 60
    while not ready_file.exists():  # published by an atomic rename
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            pytest.fail(f"daemon {label} never became ready: "
                        + (work_dir / f"{label}.log").read_text())
        time.sleep(0.02)
    ready = json.loads(ready_file.read_text())
    return proc, ServeClient(host=ready["host"], port=ready["port"])


def test_restarted_daemon_answers_from_disk(tmp_path):
    """A daemon process stopped through ``/shutdown`` exits 0, and a
    second one on the same cache directory returns the first boot's
    results for the whole mix without a cache miss."""
    boots = []
    for label in ("first", "restart"):
        proc, client = _boot_process(tmp_path, label)
        try:
            results = []
            for region in ("gather", "scatter", "stream_triad"):
                response = client.submit(
                    region, systems=["nachos", "opt-lsq"], invocations=6,
                    wait=True,
                )
                assert response["status"] == "done", response
                results.append(response["results"])
            misses = client.metrics()["cache.misses"]["value"]
            client.shutdown()
            client.close()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        boots.append((results, misses))
    (first, first_misses), (restart, restart_misses) = boots
    assert first_misses > 0
    assert restart == first
    assert restart_misses == 0


def test_metrics_snapshot_shape(client):
    client.submit("gather", systems=["nachos"], invocations=4, wait=True)
    metrics = client.metrics()
    for key in (
        "serve.requests", "serve.requests_done", "serve.tasks_submitted",
        "serve.batches", "serve.uptime_seconds", "cache.hit_rate",
        "serve.batch_size",
    ):
        assert key in metrics, f"missing {key}"
    assert metrics["serve.batch_size"]["count"] >= 1
    assert metrics["serve.retained_requests"]["value"] >= 1


def test_failed_request_reports_failure(monkeypatch, fresh_store):
    """A terminally failing task yields status=failed with the
    machine-readable TaskFailure, not a hung or dropped request."""
    fresh_store()
    d = NachosServeDaemon(port=0, quiet=True, jobs=2)
    thread = d.serve_in_thread()
    try:
        client = ServeClient(port=d.port)
        # The batch's first task loses its worker on both attempts.
        monkeypatch.setenv("NACHOS_CHAOS", "crash@0,crash@0:1")
        response = client.submit(
            "gather", systems=["nachos", "opt-lsq"], invocations=4, wait=True,
        )
        assert response["status"] == "failed"
        ((system, failure),) = response["failed"].items()
        assert (failure["kind"], failure["attempts"]) == ("crash", 2)
        assert set(response["results"]) == {"nachos", "opt-lsq"} - {system}
        monkeypatch.delenv("NACHOS_CHAOS")
        # A re-submit after the fault clears must re-run, not replay the
        # failed record.
        retry = client.submit(
            "gather", systems=["nachos", "opt-lsq"], invocations=4, wait=True,
        )
        client.close()
        assert retry["status"] == "done"
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
