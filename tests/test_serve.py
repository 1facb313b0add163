"""End-to-end tests for ``nachos-serve`` against live in-thread daemons.

Every test boots a real daemon (ephemeral TCP port or a unix socket),
drives it through :class:`repro.serve.client.ServeClient`, and shuts it
down — the HTTP parse, the request dedup, the batcher, and the pool
dispatch all run for real.
"""

from __future__ import annotations

import socket
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


@pytest.fixture
def daemon():
    """One live daemon on an ephemeral port; stopped at teardown."""
    d = NachosServeDaemon(port=0, quiet=True, batch_window=0.005)
    thread = d.serve_in_thread()
    try:
        yield d
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


@pytest.fixture
def client(daemon):
    return ServeClient(port=daemon.port)


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
    with pytest.raises(ProtocolError, match="engine"):
        parse_request({"region": "gather", "engine": "warp"})
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


def test_unknown_engine_is_a_400_naming_the_modes(client):
    """The removed vector mode is rejected like any unknown engine, and
    the error lists the modes the daemon does accept."""
    from repro.sim.factory import ENGINE_MODES

    retired = "fast-" + "vector"
    with pytest.raises(ServeError) as excinfo:
        client.submit("gather", engine=retired)
    assert excinfo.value.status == 400
    error = excinfo.value.payload["error"]
    assert retired in error
    assert str(ENGINE_MODES) in error


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


def test_unix_socket_roundtrip():
    sock_dir = tempfile.mkdtemp(prefix="nachos-sock-")  # short AF_UNIX path
    sock = str(Path(sock_dir) / "serve.sock")
    d = NachosServeDaemon(socket_path=sock, quiet=True, batch_window=0.0)
    thread = d.serve_in_thread()
    try:
        client = ServeClient(socket_path=sock)
        response = client.submit(
            "gather", systems=["opt-lsq"], invocations=4, wait=True
        )
        assert response["status"] == "done"
        assert response["results"]["opt-lsq"]["cycles"] > 0
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
    assert not Path(sock).exists(), "socket file removed on shutdown"


def test_chaos_daemon_results_match_fault_free(monkeypatch):
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
        baseline = ServeClient(port=clean.port).submit(**request)
    finally:
        clean.request_shutdown()
        thread.join(timeout=30)
    assert baseline["status"] == "done"

    # Both tasks of the request's two-task batch lose their worker once.
    monkeypatch.setenv("NACHOS_CHAOS", "crash@0,crash@1")
    chaotic = NachosServeDaemon(port=0, quiet=True, jobs=2)
    thread = chaotic.serve_in_thread()
    try:
        client = ServeClient(port=chaotic.port)
        survived = client.submit(**request)
        retries = client.metrics()["serve.pool_retries"]["value"]
    finally:
        chaotic.request_shutdown()
        thread.join(timeout=30)
    assert survived["status"] == "done"
    assert survived["results"] == baseline["results"]
    assert retries == 2


def test_metrics_snapshot_shape(client):
    client.submit("gather", systems=["nachos"], invocations=4, wait=True)
    metrics = client.metrics()
    for key in (
        "serve.requests", "serve.requests_done", "serve.tasks_submitted",
        "serve.batches", "serve.uptime_seconds", "cache.hit_rate",
        "serve.request_latency_seconds",
    ):
        assert key in metrics, f"missing {key}"
    assert metrics["serve.request_latency_seconds"]["count"] >= 1
    assert metrics["serve.retained_requests"]["value"] >= 1


def test_failed_request_reports_failure(monkeypatch):
    """A terminally failing task yields status=failed with the
    machine-readable TaskFailure, not a hung or dropped request."""
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
        assert retry["status"] == "done"
    finally:
        d.request_shutdown()
        thread.join(timeout=30)
