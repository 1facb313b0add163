#!/usr/bin/env python
"""Load-generate against a live ``nachos-serve`` daemon.

Boots one daemon subprocess on an ephemeral port with an isolated cache
directory, drives a warmup pass plus a measured multi-threaded load
phase through :class:`repro.serve.client.ServeClient`, scrapes the
daemon's ``/metrics``, and writes latency/throughput numbers to
``BENCH_serve.json``.

Modes::

    python benchmarks/bench_serve.py                 # full load shape
    python benchmarks/bench_serve.py --quick         # CI smoke load
    python benchmarks/bench_serve.py --quick \
        --chaos 'crash=0.15,corrupt=0.1,seed=11'     # fault campaign
    python benchmarks/bench_serve.py --quick --ledger perf/history.ndjson

The measured phase follows a warmup that populates the result cache and
the daemon's retained-request records, so its latencies are the *serving*
story (dedup + read-through cache), not simulation wall time — that is
the whole point of a long-running service.  ``qps``, ``p50/p90/p99``
latency, the cache hit rate, and the request dedup rate feed
``perf_budgets.toml`` via ``nachos-repro perf record --serve`` (or
``--ledger`` here directly).

``--chaos SPEC`` runs the same fixed request set against a fault-free
daemon and against a daemon whose environment carries ``NACHOS_CHAOS``
(so pool workers crash, hang, and corrupt results); the per-system
result payloads must be identical — the service inherits the supervised
executor's recovery guarantees, live.  The chaos ``abort@`` point is
the one exclusion: it SIGKILLs the supervisor, i.e. the daemon.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402

BENCH_SCHEMA = 1

#: (region, systems, invocations) mixes.  Quick is the CI smoke shape:
#: three micro regions, two systems, tiny invocation counts.  Full adds
#: a third system and a suite region for a heavier steady-state.
QUICK_MIX = [
    ("gather", ["nachos", "opt-lsq"], 6),
    ("scatter", ["nachos", "opt-lsq"], 6),
    ("stream_triad", ["nachos", "opt-lsq"], 6),
]
FULL_MIX = QUICK_MIX + [
    ("gather", ["nachos", "opt-lsq", "nachos-sw"], 12),
    ("bzip2", ["nachos", "opt-lsq"], 12),
]


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (matches ``obs.metrics.Histogram``)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered))))
    return float(ordered[min(rank, len(ordered)) - 1])


class DaemonHarness:
    """Boot/stop one daemon subprocess with an isolated cache.

    Pass ``work_dir`` to point a second daemon at an earlier daemon's
    cache (the restart-warm phase); the creator of the tmpdir cleans
    up.
    """

    def __init__(
        self, jobs: int, extra_env: dict, label: str, work_dir=None
    ) -> None:
        self.jobs = jobs
        self.extra_env = extra_env
        self.label = label
        self._owns_dir = work_dir is None
        self.work_dir = Path(
            work_dir if work_dir is not None
            else tempfile.mkdtemp(prefix=f"nachos-serve-{label}-")
        )
        self.ready_file = self.work_dir / f"ready-{label}.json"
        self.proc = None
        self.client = None

    def __enter__(self) -> "DaemonHarness":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["NACHOS_CACHE_DIR"] = str(self.work_dir / "cache")
        env.pop("NACHOS_CHAOS", None)  # only ever explicit, never inherited
        env.update(self.extra_env)
        # Port 0: the kernel picks a free ephemeral port and the daemon
        # announces it through the (atomically written) ready file, so
        # parallel CI jobs can never collide on a fixed port.
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--port", "0",
                "--jobs", str(self.jobs),
                "--ready-file", str(self.ready_file),
                "--quiet",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        ready = self._await_ready()
        self.client = ServeClient(host=ready["host"], port=ready["port"])
        return self

    def _await_ready(self) -> dict:
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                out, err = self.proc.communicate()
                raise SystemExit(
                    f"daemon ({self.label}) died on boot:\n{out}\n{err}"
                )
            if time.monotonic() > deadline:
                self.proc.kill()
                raise SystemExit(f"daemon ({self.label}) never became ready")
            if self.ready_file.exists():
                try:
                    ready = json.loads(self.ready_file.read_text())
                except ValueError:
                    # The daemon publishes the ready file atomically, so
                    # this only races a non-atomic filesystem; re-poll.
                    time.sleep(0.02)
                    continue
                if isinstance(ready, dict) and ready.get("port"):
                    return ready
            time.sleep(0.02)

    def __exit__(self, *exc) -> None:
        try:
            if self.client is not None:
                self.client.shutdown()
                self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
        finally:
            self.proc.wait(timeout=10)
            if self._owns_dir:
                shutil.rmtree(self.work_dir, ignore_errors=True)


def _drive(client, mix, requests: int, concurrency: int):
    """The measured phase: ``concurrency`` threads, round-robin mix."""
    latencies = []
    errors = []
    lock = threading.Lock()

    def worker(offset: int) -> None:
        for i in range(offset, requests, concurrency):
            region, systems, invocations = mix[i % len(mix)]
            t0 = time.perf_counter()
            try:
                response = client.submit(
                    region, systems=systems, invocations=invocations,
                    wait=True, wait_timeout=120.0,
                )
                ok = response.get("status") == "done"
            except Exception as exc:
                ok = False
                with lock:
                    errors.append(str(exc))
            elapsed = time.perf_counter() - t0
            with lock:
                latencies.append(elapsed)
                if not ok and not errors:
                    errors.append(f"request {i} not done")

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(concurrency)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return latencies, wall, errors


def _collect_results(client, mix) -> dict:
    """One wait=True pass over the mix, keyed for identity comparison
    between phases."""
    out = {}
    for region, systems, invocations in mix:
        response = client.submit(
            region, systems=systems, invocations=invocations, wait=True
        )
        if response.get("status") != "done":
            raise SystemExit(
                f"request {region}/{systems} finished as "
                f"{response.get('status')}: {response.get('failed')}"
            )
        out[f"{region}:{','.join(systems)}:{invocations}"] = response["results"]
    return out


def _daemon_counters(metrics: dict) -> dict:
    """Flatten the /metrics payload to scalar counters for the report."""
    flat = {}
    for name, entry in sorted(metrics.items()):
        if name.startswith("_"):
            continue
        if entry.get("type") in ("counter", "gauge"):
            flat[name] = entry["value"]
        elif entry.get("type") == "histogram" and entry.get("count"):
            for key in ("count", "mean", "p50", "p99"):
                if key in entry:
                    flat[f"{name}.{key}"] = entry[key]
    return flat


def _chaos_extra_env(spec: str) -> dict:
    """Fault-campaign env for a daemon: the chaos spec plus retry knobs
    generous enough that the supervised pool always recovers."""
    return {
        "NACHOS_CHAOS": spec,
        "NACHOS_TIMEOUT": os.environ.get("NACHOS_TIMEOUT", "10"),
        "NACHOS_MAX_RETRIES": os.environ.get("NACHOS_MAX_RETRIES", "4"),
        "NACHOS_BACKOFF_BASE": os.environ.get("NACHOS_BACKOFF_BASE", "0.05"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke load")
    parser.add_argument(
        "--jobs", type=int, default=2, help="daemon worker-pool width"
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="measured-phase request count (default 24 quick / 96 full)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=None,
        help="client threads (default 4 quick / 8 full)",
    )
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_serve.json"))
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="also run the request set against a NACHOS_CHAOS daemon on a "
        "fresh cache; per-system results must match the fault-free run "
        "(abort@ unsupported: it kills the supervisor = the daemon)",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append this report to the perf-observatory run ledger",
    )
    args = parser.parse_args(argv)

    if args.chaos and "abort" in args.chaos:
        print("FAIL: chaos abort@ would SIGKILL the daemon itself",
              file=sys.stderr)
        return 2

    mix = QUICK_MIX if args.quick else FULL_MIX
    requests = args.requests or (24 if args.quick else 96)
    concurrency = args.concurrency or (4 if args.quick else 8)

    work_dir = Path(tempfile.mkdtemp(prefix="nachos-serve-bench-"))
    try:
        with DaemonHarness(args.jobs, {}, "bench", work_dir) as harness:
            client = harness.client
            print(f"[daemon up: {client.host}:{client.port}, jobs={args.jobs}]")

            print(f"[warmup: {len(mix)} distinct requests]")
            t0 = time.perf_counter()
            baseline = _collect_results(client, mix)
            warmup_s = time.perf_counter() - t0
            print(f"[warmup: {warmup_s:.2f}s]")

            print(f"[measured: {requests} requests x {concurrency} threads]")
            latencies, wall, errors = _drive(client, mix, requests, concurrency)
            metrics = client.metrics()

        # Restart-warm: a fresh daemon on the same cache directory must
        # answer the whole mix from the on-disk result cache — the
        # durability layer is what makes the service restartable.
        print("[restart-warm: new daemon, same cache]")
        t0 = time.perf_counter()
        with DaemonHarness(args.jobs, {}, "restart", work_dir) as harness:
            restart_results = _collect_results(harness.client, mix)
            restart_metrics = harness.client.metrics()
        restart_s = time.perf_counter() - t0
        restart_identical = restart_results == baseline
        print(f"[restart-warm: {restart_s:.2f}s, identical={restart_identical}]")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    served = len(latencies)
    req_total = metrics.get("serve.requests", {}).get("value", 0)
    req_dedup = metrics.get("serve.requests_deduped", {}).get("value", 0)
    report = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if args.quick else "full",
        "jobs": args.jobs,
        "requests": served,
        "concurrency": concurrency,
        "distinct_requests": len(mix),
        "warmup_seconds": round(warmup_s, 3),
        "wall_seconds": round(wall, 3),
        "qps": round(served / wall, 2) if wall > 0 else 0.0,
        "mean_latency_seconds": round(sum(latencies) / served, 4) if served else 0.0,
        "p50_latency_seconds": round(_percentile(latencies, 50), 4),
        "p90_latency_seconds": round(_percentile(latencies, 90), 4),
        "p99_latency_seconds": round(_percentile(latencies, 99), 4),
        # The hit rate that matters for a service is the restart-warm
        # one: a rebooted daemon re-serving the mix straight from disk.
        "cache_hit_rate": restart_metrics.get("cache.hit_rate", {}).get(
            "value", 0.0
        ),
        "dedup_rate": round(req_dedup / req_total, 4) if req_total else 0.0,
        "restart_warm_seconds": round(restart_s, 3),
        "results_identical_restart_vs_first_boot": restart_identical,
        "errors": len(errors),
        "daemon": _daemon_counters(metrics),
    }

    if args.chaos:
        # Fresh caches on both sides so every task actually executes
        # (and actually gets crashed/corrupted) instead of being served
        # from the bench run's warm cache.
        print(f"[chaos run: NACHOS_CHAOS={args.chaos}]")
        t0 = time.perf_counter()
        with DaemonHarness(
            args.jobs, _chaos_extra_env(args.chaos), "chaos"
        ) as harness:
            chaos_results = _collect_results(harness.client, mix)
            chaos_metrics = harness.client.metrics()
        chaos_s = time.perf_counter() - t0
        identical = chaos_results == baseline
        report["chaos_spec"] = args.chaos
        report["chaos_wall_seconds"] = round(chaos_s, 3)
        report["chaos_retries"] = chaos_metrics.get(
            "serve.pool_retries", {}
        ).get("value", 0)
        report["results_identical_chaos_vs_fault_free"] = identical
        print(
            f"[chaos: {chaos_s:.2f}s, retries="
            f"{report['chaos_retries']}, identical={identical}]"
        )

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    if args.ledger:
        from repro.obs import PerfLedger, record_from_serve

        ledger = PerfLedger(args.ledger)
        fp = ledger.append(record_from_serve(report))
        print(f"[ledger {ledger.path}: appended serve record {fp}]")

    if errors:
        print(f"FAIL: {len(errors)} request error(s); first: {errors[0]}",
              file=sys.stderr)
        return 1
    if not restart_identical:
        print(
            "FAIL: restart-warm results differ from the first boot — the "
            "on-disk result cache served something wrong",
            file=sys.stderr,
        )
        return 1
    if args.chaos and not report["results_identical_chaos_vs_fault_free"]:
        print(
            "FAIL: chaos-run results differ from the fault-free run — the "
            "daemon lost the supervised executor's recovery guarantee",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
