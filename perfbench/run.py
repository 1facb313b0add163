"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up, measures it for ``--seconds`` and
prints the end-to-end metrics.  ``--trace 1`` does the same untraced
run, then sets the workload up again with spans at every layer boundary
(:mod:`perfbench.spans`), measures it again and prints the per-layer
metrics, the tracing overhead and the unattributed residual.  Spans are
written to ``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any output mismatch (a task
the golden model disagrees with, a coverage gap, a served payload that
differs from in-process ``run_system``, a simulated statistic that
changed between passes or between the traced and untraced runs) counts
as a failed item and makes the command exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: What ``throughput_per_s`` counts on each workload.
THROUGHPUT_NAMES = {
    "sweep-cold": "sweep.tasks_per_s",
    "sweep-warm": "sweep.tasks_per_s",
    "compile-allpaths": "compile.regions_per_s",
    "serve-mix": "serve.rps",
}
WORKLOAD_NAMES = tuple(THROUGHPUT_NAMES)

#: Environment the program reads that would change what is measured; the
#: engine mode is left alone so the program's own default is measured.
_PROGRAM_ENV = ("NACHOS_JOBS", "NACHOS_CHAOS", "NACHOS_CHECKPOINT_DIR",
                "NACHOS_CACHE", "NACHOS_CACHE_DIR", "NACHOS_PEERS",
                "NACHOS_PEER_ID", "NACHOS_HOP_LIMIT", "NACHOS_TIMEOUT",
                "NACHOS_MAX_RETRIES", "NACHOS_PERF_LEDGER")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _rss_mb(name: str) -> float:
    """Peak RSS of the program's processes, in MB.

    On serve-mix the program is the daemon, so this is the largest
    finished child: the daemon or one of its pool workers.  The benchmark
    process only sends requests and checks payloads there, and its own
    memory would grow with the checks.  Elsewhere the program also runs in
    this process, so its peak is added to that of the largest child.
    """
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if name == "serve-mix":
        return child / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + child) / 1024.0


def _session(name: str, seed: int, seconds: float, work: Path, traced: bool):
    from perfbench import speed
    from perfbench.layers import Session
    from perfbench.spans import NullTracer, Tracer
    from perfbench.workloads import WORKLOADS

    tracer = Tracer() if traced else NullTracer()
    work = work / ("traced" if traced else "untraced")
    work.mkdir()
    workload = WORKLOADS[name](seed, work, tracer)
    # The service is traced inside its daemon (perfbench/traced_daemon.py);
    # in this process only the client requests are spans.
    hooked = traced and name != "serve-mix"
    if hooked:
        tracer.install()
    try:
        speed.warm_up()
        setup_raw, setup_s = workload.setup()
        passes = workload.window(seconds, min_passes=2 if traced else 1)
    finally:
        try:
            workload.close()
        finally:
            if hooked:
                tracer.uninstall()
    spans = list(tracer.spans)
    if traced and name == "serve-mix":
        spans += workload.daemon_spans()
    session = Session(setup_s=setup_s, passes=passes, spans=spans,
                      setup_raw=setup_raw,
                      tail_q=workload.tail_q,
                      setup_builds=workload.setup_builds)
    return workload, session


def _cross_check(untraced, traced) -> int:
    """Items both sessions produced must carry the same digests."""
    bad = 0
    for item, digest in traced.reference.items():
        ref = untraced.reference.get(item)
        if ref is not None and ref != digest:
            bad += 1
            traced.errors.append(f"{item}: traced digest {digest} != untraced {ref}")
    return bad


def run(args, work: Path) -> dict:
    from perfbench import layers
    from perfbench.stats import median, quartiles
    from perfbench.workloads import nproc
    from repro.sim.factory import resolve_engine_mode

    name = args.workload
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} "
          f"jobs={nproc()} engine={resolve_engine_mode()}")
    workload, session = _session(name, args.seed, args.seconds, work, traced=False)
    rss = _rss_mb(name)
    e2e = layers.end_to_end(session, rss)
    attempted = session.items
    failed = sum(p.failed for p in session.passes)
    errors = list(workload.errors)

    walls = [p.wall for p in session.passes]
    scales = [p.scale for p in session.passes]
    print(f"  untraced: {len(session.passes)} passes, {session.items} items, "
          f"median raw pass {median(walls):.3f}s, raw set-up {session.setup_raw:.3f}s; "
          f"host speed factor {median(scales):.3f}; "
          f"tail: {layers.tail(session.latencies, session.tail_q)[1]}")
    q1, q2, q3 = quartiles(session.latencies)
    print(f"  {THROUGHPUT_NAMES[name]}: {e2e['throughput_per_s']:.4f}; item latency "
          f"quartiles {q1 * 1e3:.3f} / {q2 * 1e3:.3f} / {q3 * 1e3:.3f} ms")
    for note, base in (("disk_hit_share", "cache lookups"),
                       ("may_pair_share", "alias pairs"),
                       ("fresh_share", "requests"), ("read_share", "requests"),
                       ("dedup_share", "requests")):
        passes = [p for p in session.passes if note in p.notes]
        if passes:
            total = sum(int(p.notes[f"{note}_base"]) for p in passes)
            print(f"  {note}: {median([p.notes[note] for p in passes]):.4f} "
                  f"of {total} {base}")
    if name != "serve-mix":
        # Seeds only reorder the inputs, so this digest is the same on every run.
        digest = hashlib.sha256(json.dumps(sorted(workload.reference.items()))
                                .encode()).hexdigest()[:16]
        print(f"  outputs digest: {digest} over {len(workload.reference)} items")
    serve = layers.serve_latencies(session) if name == "serve-mix" else {}
    for key, value in serve.items():
        print(f"  {key}: {value:.3f} ms")

    metrics = {}
    if args.trace:
        traced_workload, traced = _session(name, args.seed, args.seconds, work,
                                           traced=True)
        attempted += traced.items
        failed += sum(p.failed for p in traced.passes)
        failed += _cross_check(workload, traced_workload)
        errors += traced_workload.errors
        rows = layers.per_layer(traced, session)
        rows.update({k: (v, "") for k, v in serve.items()})
        rows["trace.overhead_frac"] = (layers.overhead(traced, session), "")
        _write_spans(name, args.seed, traced.spans)
        print(f"  traced: {len(traced.passes)} passes, {len(traced.spans)} spans")
        for metric, unit in layers.PER_LAYER:
            value, flag = rows[metric]
            metrics[metric] = {"value": value, "unit": unit}
            print(f"  {metric:28s} {value:16.6f} {unit:6s} {flag}")
    else:
        for metric, unit in layers.END_TO_END:
            metrics[metric] = {"value": e2e[metric], "unit": unit}
            print(f"  {metric:28s} {e2e[metric]:16.6f} {unit}")
    print(f"  error_rate: {failed}/{attempted}")
    for line in errors[:20]:
        print(f"  ERROR {line}")
    return {"correct": failed == 0 and not errors, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _write_spans(name: str, seed: int, spans) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans))


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for key in _PROGRAM_ENV:
        os.environ.pop(key, None)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["NACHOS_CACHE_DIR"] = str(work / "cache-default")
    t0 = time.perf_counter()
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"  run wall: {time.perf_counter() - t0:.1f}s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
