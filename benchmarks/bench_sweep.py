#!/usr/bin/env python
"""Measure the sweep runner: cold vs warm cache, serial vs parallel.

Runs the experiment sweep in subprocesses against an isolated cache
directory (so timings never mix with the user's ``~/.cache``), verifies
that the warm run's rendered output is byte-identical to the cold run,
and writes the wall-clock numbers to ``BENCH_sweep.json``.

Modes::

    python benchmarks/bench_sweep.py                # full: nachos-repro all
    python benchmarks/bench_sweep.py --quick        # CI smoke: 2 regions x 3 systems
    python benchmarks/bench_sweep.py --jobs 4       # fan the sweep across workers
    python benchmarks/bench_sweep.py --quick --jobs 4 --chaos 'crash@1,crash@4'

The ``--quick`` smoke sweep is what CI runs on every push: two micro
regions through all three paper systems, parallel, cache on, then a
warm re-run that must be 100% cache-served and identical.  The report's
``warm_forked_workers`` counts the pool workers the warm run forked;
its hits are served by the supervisor, so CI requires 0.

``--chaos SPEC`` adds a third run on a fresh cache with the given
fault-injection profile active (``NACHOS_CHAOS``); pool workers die at
the spec's ``crash@`` points, yet the supervised executor must requeue
their tasks and produce output byte-identical to the fault-free cold
run.  Each child prints how many tasks its pool requeued; the report
records the chaos run's count as ``chaos_requeues``, and a spec with
``crash@`` points that requeued nothing fails the run (its points never
fired, say ``crash@9`` on the 6-task quick sweep, so it tested nothing).
A spec that kills one task's worker twice (``crash@I,crash@I:1``) fails
that task, so the outputs then differ.

All wall times here and in the child CLI come from
``time.perf_counter()`` (one monotonic clock source end to end); CPU
times are ``os.times()`` children deltas.  Host-speed regressions are
gated by ``tools/perf_pairs.py`` (paired perfbench runs against the
merge base), not by this report.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Wall clock of ``nachos-repro all`` at the pre-cache seed commit,
#: measured on the same class of container this harness targets.  The
#: acceptance bar is warm-cache >= 3x faster than this serial baseline.
SEED_SERIAL_SECONDS = 200.9

_TIMING_LINE = re.compile(
    r"^\[(?:[a-z0-9_-]+: [0-9.]+s|cache: .*|requeues: [0-9]+|forked: [0-9]+)\]$"
)

#: The child's closing lines: tasks its pool requeued after a worker
#: death, and pool workers its sweeps forked.
_REQUEUE_LINE = re.compile(r"^\[requeues: ([0-9]+)\]$", re.MULTILINE)
_FORKED_LINE = re.compile(r"^\[forked: ([0-9]+)\]$", re.MULTILINE)

#: Per-experiment stage timing as printed by the CLI: ``[fig11: 3.2s]``.
_FIGURE_LINE = re.compile(r"^\[([a-z0-9_-]+): ([0-9.]+)s\]$")


def _child_env(cache_dir: Path, jobs: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["NACHOS_CACHE_DIR"] = str(cache_dir)
    env["NACHOS_JOBS"] = str(jobs)
    return env


def _strip_timing(output: str) -> str:
    """Drop per-experiment timing and cache-counter lines before diffing."""
    return "\n".join(
        line for line in output.splitlines() if not _TIMING_LINE.match(line)
    )


def _parse_figure_walls(output: str) -> dict:
    """Per-figure wall seconds from the child CLI's stage-timing lines.

    The CLI times every experiment stage with ``time.perf_counter()``
    and prints ``[<name>: <seconds>s]``; folding those into the report
    gives a per-figure breakdown without a second profiling run.
    Returns ``{}`` for quick mode (no figure stages).
    """
    walls = {}
    for line in output.splitlines():
        match = _FIGURE_LINE.match(line)
        if match and match.group(1) != "cache":
            walls[match.group(1)] = float(match.group(2))
    return walls


def _timed_run(cmd, env) -> tuple:
    """Run ``cmd``, returning (wall seconds, child CPU seconds, stdout).

    CPU time is the reaped children's user+system delta from
    ``os.times()`` — with ``--jobs N`` it exceeds wall time, which is
    exactly why both are reported: wall is what a user waits for, CPU
    is what an engine actually costs.

    The child CLI's own process counts too, and with ``--jobs N`` that
    is the pool supervisor.  Until the supervisor blocked on the worker
    pipes it spun a core for the whole sweep, so the CPU figures in the
    committed ``BENCH_sweep.json`` overstate the workers' CPU by up to
    one core times the cold wall.
    """
    t0 = os.times()
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    t1 = os.times()
    cpu = (t1.children_user - t0.children_user) + (
        t1.children_system - t0.children_system
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child failed ({proc.returncode}): {' '.join(cmd)}")
    return elapsed, cpu, proc.stdout


def _cache_stats(cache_dir: Path) -> dict:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.runtime.cache import ResultCache

    stats = ResultCache(root=cache_dir).stats()
    return {
        "entries": stats["entries"],
        "bytes": stats["bytes"],
        "hits": stats["hits"],
        "misses": stats["misses"],
    }


def _child(body) -> int:
    """Run a child sweep *body* with sweep profiling on, then print the
    number of requeued tasks and of forked pool workers (from the
    profile's sweep records) on lines ``_strip_timing`` drops."""
    from repro.obs.profile import enable_profiling

    profile = enable_profiling()
    code = body() or 0
    print(f"[requeues: {profile.retries}]")
    print(f"[forked: {sum(s.forked for s in profile.sweeps)}]")
    return code


def _smoke_sweep() -> None:
    """Child body for --quick: 2 regions x 3 systems through the sweep."""
    from repro.runtime.cache import get_cache
    from repro.runtime.executor import get_jobs
    from repro.runtime.sweep import sweep_comparisons
    from repro.workloads.micro import build_micro

    workloads = [build_micro("stream_triad"), build_micro("scatter")]
    comparisons = sweep_comparisons(workloads, invocations=8, jobs=get_jobs())
    for cmp in comparisons:
        for system, run in cmp.runs.items():
            print(
                f"{cmp.workload.name:>16} {system:<9} "
                f"cycles={run.sim.cycles} energy={run.sim.total_energy:.1f} "
                f"ok={run.correct}"
            )
    cache = get_cache()
    print(f"[cache: {cache.hits} hits, {cache.misses} misses]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sweep")
    parser.add_argument("--jobs", type=int, default=1, help="sweep parallelism")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_sweep.json"))
    parser.add_argument(
        "--keep-cache", action="store_true", help="keep the bench cache dir"
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="also run once under this NACHOS_CHAOS fault profile on a "
        "fresh cache; output must match the fault-free cold run",
    )
    parser.add_argument("--child-quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-all", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child_quick:
        return _child(_smoke_sweep)
    if args.child_all:
        from repro.experiments.cli import main as cli_main

        return _child(lambda: cli_main(["all"]))

    cache_dir = Path(tempfile.mkdtemp(prefix="nachos-bench-cache-"))
    try:
        child = "--child-quick" if args.quick else "--child-all"
        cmd = [sys.executable, str(Path(__file__).resolve()), child]
        env = _child_env(cache_dir, args.jobs)

        print(f"[cold run: jobs={args.jobs}, cache={cache_dir}]")
        cold_s, cold_cpu, cold_out = _timed_run(cmd, env)
        print(f"[cold: {cold_s:.1f}s wall, {cold_cpu:.1f}s cpu]")

        print("[warm run: same cache]")
        warm_s, _warm_cpu, warm_out = _timed_run(cmd, env)
        print(f"[warm: {warm_s:.1f}s]")

        identical = _strip_timing(cold_out) == _strip_timing(warm_out)
        match = _FORKED_LINE.search(warm_out)
        warm_forked = int(match.group(1)) if match else None

        chaos_identical = None
        chaos_s = None
        chaos_requeues = 0
        if args.chaos:
            # Fresh cache so every task really executes rather than being
            # cache-served.
            chaos_cache = Path(tempfile.mkdtemp(prefix="nachos-bench-chaos-"))
            try:
                chaos_env = _child_env(chaos_cache, args.jobs)
                chaos_env["NACHOS_CHAOS"] = args.chaos
                print(f"[chaos run: NACHOS_CHAOS={args.chaos}]")
                chaos_s, _chaos_cpu, chaos_out = _timed_run(cmd, chaos_env)
                print(f"[chaos: {chaos_s:.1f}s]")
                chaos_identical = _strip_timing(chaos_out) == _strip_timing(cold_out)
                match = _REQUEUE_LINE.search(chaos_out)
                chaos_requeues = int(match.group(1)) if match else 0
            finally:
                shutil.rmtree(chaos_cache, ignore_errors=True)

        stats = _cache_stats(cache_dir)
        report = {
            "mode": "quick" if args.quick else "full",
            "jobs": args.jobs,
            "seed_serial_seconds": None if args.quick else SEED_SERIAL_SECONDS,
            "cold_seconds": round(cold_s, 2),
            "warm_seconds": round(warm_s, 2),
            "warm_speedup_vs_cold": round(cold_s / warm_s, 2),
            "warm_speedup_vs_seed": (
                None if args.quick else round(SEED_SERIAL_SECONDS / warm_s, 2)
            ),
            "cold_speedup_vs_seed": (
                None if args.quick else round(SEED_SERIAL_SECONDS / cold_s, 2)
            ),
            "outputs_identical_cold_vs_warm": identical,
            # Cache hits are served by the pool's supervisor: an all-hit
            # warm run forks no worker.
            "warm_forked_workers": warm_forked,
            "cache": stats,
        }
        figure_walls = _parse_figure_walls(cold_out)
        if figure_walls:
            report["per_figure_wall_seconds"] = figure_walls
        if args.chaos:
            report["chaos_spec"] = args.chaos
            report["chaos_seconds"] = round(chaos_s, 2)
            report["chaos_requeues"] = chaos_requeues
            report["outputs_identical_chaos_vs_cold"] = chaos_identical
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        if not identical:
            print("FAIL: warm output differs from cold output", file=sys.stderr)
            return 1
        if args.chaos and not chaos_identical:
            print(
                "FAIL: chaos-run output differs from the fault-free cold run",
                file=sys.stderr,
            )
            return 1
        if args.chaos and "crash@" in args.chaos and not chaos_requeues:
            print(
                f"FAIL: chaos spec {args.chaos!r} requeued no task — its "
                "crash points never fired, so the run tested nothing",
                file=sys.stderr,
            )
            return 1
        if not args.quick and SEED_SERIAL_SECONDS / warm_s < 3.0:
            print("FAIL: warm sweep is not >= 3x the seed baseline", file=sys.stderr)
            return 1
        return 0
    finally:
        if args.keep_cache:
            print(f"[cache kept at {cache_dir}]")
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
