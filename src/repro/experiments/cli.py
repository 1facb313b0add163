"""``nachos-repro`` — regenerate any table or figure from the paper.

Usage::

    nachos-repro list                  # what can be regenerated
    nachos-repro table2                # one artifact
    nachos-repro fig11 fig15           # several
    nachos-repro all                   # everything
    nachos-repro all --jobs 4          # fan simulations across processes
    nachos-repro fig11 --invocations 60
    nachos-repro fig11 --no-cache      # force a cold run
    nachos-repro all --jobs 4          # supervised: a dead worker is
                                       # replaced, its task requeued once
    nachos-repro all                   # after a killed/crashed sweep:
                                       # finished tasks replay from the cache
    nachos-repro all --failure-report failures.json
                                       # degrade to partial results +
                                       # machine-readable report
    nachos-repro cache stats           # hit/miss counters, size, code
                                       # fingerprint
    nachos-repro cache clear           # drop every cached result
    nachos-repro trace bzip2 --system nachos --out trace.json
                                       # Chrome-trace/Perfetto event dump
    nachos-repro trace bzip2 --system nachos --sanitize
                                       # + check ordering invariants
    nachos-repro trace bzip2 --system nachos --metrics m.json
                                       # + the run's metrics registry
    nachos-repro verify --fuzz 200 --seed 0
                                       # alias fuzzing, every check on
                                       # every region: golden model +
                                       # sanitizer and reference/fast
                                       # engines per backend, stage
                                       # verdicts vs the stage-5 oracle
                                       # and MDE sync coverage per region
    nachos-repro verify --repro fuzz-repros/fuzz-0-41-golden-nachos.json
                                       # rerun a shrunken failure

Per-task host wall time is perfbench's: ``python3 perfbench/run.py
--workload sweep-cold --trace 1`` times every sweep task as a span.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.runtime.cache import configure_cache, get_cache
from repro.runtime.executor import SweepError, set_jobs
from repro.runtime.fingerprint import CODE_FINGERPRINT

from repro.experiments import (
    allpaths,
    appendix_model,
    fig06,
    fig07,
    fig09,
    fig10,
    fig11,
    fig12,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    granularity,
    limit_study,
    may_sweep,
    micro_study,
    observations,
    offload_study,
    scope_study,
    summary,
    table2,
    variance,
)

#: name -> (run, render, takes_invocations)
EXPERIMENTS: Dict[str, Tuple[Callable, Callable, bool]] = {
    "table2": (table2.run, table2.render, False),
    "fig06": (fig06.run, fig06.render, False),
    "fig07": (fig07.run, fig07.render, False),
    "fig09": (fig09.run, fig09.render, False),
    "fig10": (fig10.run, fig10.render, False),
    "fig11": (fig11.run, fig11.render, True),
    "fig12": (fig12.run, fig12.render, True),
    "fig14": (fig14.run, fig14.render, False),
    "fig15": (fig15.run, fig15.render, True),
    "fig16": (fig16.run, fig16.render, False),
    "fig17": (fig17.run, fig17.render, True),
    "fig18": (fig18.run, fig18.render, True),
    "scope": (scope_study.run, scope_study.render, False),
    "appendix": (appendix_model.run, appendix_model.render, False),
    "granularity": (granularity.run, granularity.render, True),
    "summary": (summary.run, summary.render, True),
    "allpaths": (allpaths.run, allpaths.render, True),
    "observations": (observations.run, observations.render, True),
    "may-sweep": (may_sweep.run, may_sweep.render, True),
    "offload": (offload_study.run, offload_study.render, True),
    "micro": (micro_study.run, micro_study.render, True),
    "limit": (limit_study.run, limit_study.render, True),
    "variance": (variance.run, variance.render, True),
}


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "serve":
        # The daemon owns its own flag set (--port/--socket/...); hand
        # off before this parser can reject them.
        from repro.serve.daemon import main as serve_main

        return serve_main(raw[1:])

    # No prefix matching: a retired flag that is a prefix of a live one
    # must be an error, not a silent abbreviation.
    parser = argparse.ArgumentParser(
        prog="nachos-repro",
        description="Regenerate the tables and figures of the NACHOS paper (HPCA'18).",
        allow_abbrev=False,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["list"],
        help="experiment names (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--invocations",
        type=int,
        default=None,
        help="region invocations per simulation (performance/energy figures)",
    )
    parser.add_argument(
        "--svg-dir",
        default=None,
        help="also write each figure as an SVG bar chart into this directory",
    )
    parser.add_argument(
        "--json-dir",
        default=None,
        help="also dump each result as JSON into this directory",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="fan (workload, system) simulations across N processes",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the on-disk result cache (force a cold run; a killed "
        "run then has nothing to resume from)",
    )
    parser.add_argument(
        "--failure-report",
        default=None,
        metavar="PATH",
        help="where to write the machine-readable per-task failure report "
        "when tasks fail (default nachos-failure-report.json)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default ~/.cache/nachos-repro or $NACHOS_CACHE_DIR)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="for 'trace': dump the run's metrics-registry JSON "
        "(counters/histograms)",
    )
    parser.add_argument(
        "--system",
        default="nachos",
        help="system for 'trace' (opt-lsq, nachos-sw, nachos, spec-lsq, ...)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path for 'trace' (default trace.json)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="for 'trace': run the ordering sanitizer over the event stream",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=100,
        metavar="N",
        help="for 'verify': number of fuzzed regions (default 100)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="for 'verify': campaign seed (regions are deterministic in it)",
    )
    parser.add_argument(
        "--systems",
        nargs="+",
        default=None,
        metavar="SYS",
        help="for 'verify': backends to fuzz (default: all five)",
    )
    parser.add_argument(
        "--repro",
        default=None,
        metavar="PATH",
        help="for 'verify': rerun a saved fuzz repro instead of fuzzing",
    )
    parser.add_argument(
        "--repro-dir",
        default="fuzz-repros",
        metavar="DIR",
        help="for 'verify': where shrunken failing regions are dumped",
    )
    parser.add_argument(
        "--inject-stage-fault",
        type=int,
        default=None,
        metavar="SEED",
        help="for 'verify': flip one oracle-refutable MAY verdict to NO "
        "per region at check time — a self-test that the oracle check "
        "fires end to end",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None:
        set_jobs(args.jobs)
    if args.no_cache or args.cache_dir:
        configure_cache(
            root=Path(args.cache_dir) if args.cache_dir else None,
            enabled=False if args.no_cache else None,
        )

    names = args.experiments or ["list"]
    if names[0] == "cache":
        return _cache_command(names[1:])
    if names[0] == "trace":
        return _trace_command(names[1:], args)
    if names[0] == "verify":
        return _verify_command(args)
    if names == ["list"]:
        print("Available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  all")
        return 0

    if names == ["all"]:
        names = list(EXPERIMENTS)

    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    failed: Dict[str, dict] = {}
    for name in names:
        run, render, takes_inv = EXPERIMENTS[name]
        # perf_counter, not time.time(): stage timings need a monotonic
        # clock.
        start = time.perf_counter()
        try:
            if takes_inv and args.invocations is not None:
                result = run(invocations=args.invocations)
            else:
                result = run()
        except SweepError as exc:
            # Graceful degradation: record the per-task failures and move
            # on to the remaining figures instead of aborting the set.
            failed[name] = exc.outcome.as_report()
            print(
                f"[{name}: FAILED — "
                f"{len(exc.outcome.failures)} task(s) failed; "
                f"continuing with the remaining experiments]",
                file=sys.stderr,
            )
            continue
        seconds = time.perf_counter() - start
        print(render(result))
        print(f"[{name}: {seconds:.1f}s]")
        if args.svg_dir:
            _write_svg(name, result, args.svg_dir)
        if args.json_dir:
            _write_json(name, result, args.json_dir)
        print()

    cache = get_cache()
    if cache.enabled and (cache.hits or cache.misses):
        total = cache.hits + cache.misses
        print(
            f"[cache: {cache.hits}/{total} hits this run "
            f"({100.0 * cache.hits / total:.0f}%)]"
        )

    if failed:
        report_path = args.failure_report or "nachos-failure-report.json"
        _write_failure_report(report_path, names, failed)
        print(
            f"[{len(failed)}/{len(names)} experiment(s) degraded to partial "
            f"results; failure report written to {report_path}]",
            file=sys.stderr,
        )
        return 3
    return 0


def _write_failure_report(path: str, names, failed: Dict[str, dict]) -> None:
    """Machine-readable per-task failure report for degraded runs."""
    payload = {
        "schema": 1,
        "tool": "nachos-repro",
        "experiments": list(names),
        "completed": [n for n in names if n not in failed],
        "failed": failed,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _trace_command(rest, args) -> int:
    """``nachos-repro trace <region> --system <sys> --out trace.json``."""
    from collections import Counter as TallyCounter

    from repro.obs import (
        backend_counts,
        chrome_trace,
        metrics_from_run,
        resolve_workload,
        traced_run,
        write_chrome_trace,
    )

    if not rest:
        print("usage: nachos-repro trace <region> [--system SYS] [--out PATH]",
              file=sys.stderr)
        return 2
    try:
        workload = resolve_workload(rest[0])
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    out_path = args.out or "trace.json"
    start = time.perf_counter()
    try:
        run = traced_run(
            workload, args.system, invocations=args.invocations
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    trace = chrome_trace(
        run.tracer,
        graph=run.graph,
        placement=run.placement,
        region=workload.name,
        backend=args.system,
    )
    write_chrome_trace(out_path, trace)

    sim = run.sim
    print(f"region {workload.name} under {args.system}: "
          f"{sim.cycles} cycles over {sim.invocations} invocations "
          f"({'correct' if run.correct else 'INCORRECT'})")
    tally = TallyCounter(e.kind for e in run.tracer.events)
    for kind in sorted(tally):
        print(f"  {kind:<20} {tally[kind]}")
    counted = backend_counts(run.tracer.events)
    stats = sim.backend_stats.as_dict(rates=False)
    if counted == stats:
        print("[trace counters match backend stats]")
    else:
        drift = {k: (counted[k], stats[k]) for k in stats if counted[k] != stats[k]}
        print(f"[WARNING: trace counters diverge from backend stats: {drift}]",
              file=sys.stderr)
    print(f"[wrote {len(trace['traceEvents'])} trace events to {out_path} "
          f"in {time.perf_counter() - start:.1f}s — open in "
          f"https://ui.perfetto.dev]")
    if args.metrics:
        registry = metrics_from_run(sim, tracer=run.tracer)
        registry.write_json(args.metrics)
        print(f"[wrote metrics to {args.metrics}]")
    sanitize_ok = True
    if args.sanitize:
        from repro.verify import sanitize_trace

        backend = sim.backend or args.system
        report = sanitize_trace(
            run.tracer.events, run.graph, backend, region=workload.name,
            mdes=run.mdes,
        )
        print(report.render())
        sanitize_ok = report.ok
    return 0 if run.correct and counted == stats and sanitize_ok else 1


def _verify_command(args) -> int:
    """``nachos-repro verify [--fuzz N --seed S --systems ...]``.

    Runs every check of :data:`repro.verify.fuzz.CHECKS` on each fuzzed
    region; failures are shrunk and dumped as standalone repros.
    ``--repro FILE`` reruns a saved repro's check instead.
    """
    from repro.verify import CHECKS, SYSTEMS, load_repro, rerun, save_failure
    from repro.verify.fuzz import fuzz

    if args.repro:
        try:
            failure = load_repro(Path(args.repro))
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        findings = rerun(Path(args.repro))
        where = f" under {failure.system}" if failure.system else ""
        print(f"{failure.check} check on {failure.spec.name}{where}: "
              f"{len(findings)} finding(s)")
        for finding in findings:
            print(f"  {finding}")
        print(f"repro {args.repro}: "
              f"{'still failing' if findings else 'no longer fails'}")
        return 1 if findings else 0

    systems = list(args.systems) if args.systems else list(SYSTEMS)
    unknown = [s for s in systems if s not in SYSTEMS]
    if unknown:
        print(f"unknown system(s) {', '.join(unknown)}; "
              f"expected any of {', '.join(SYSTEMS)}", file=sys.stderr)
        return 2
    fault_note = (
        f" [injected stage fault seed {args.inject_stage_fault}]"
        if args.inject_stage_fault is not None else ""
    )
    print(f"fuzzing systems: {', '.join(systems)}{fault_note}")
    start = time.perf_counter()

    def progress(k, n):
        if k and k % 50 == 0:
            print(f"  ... {k}/{n} regions")

    result = fuzz(
        args.fuzz, seed=args.seed, systems=systems, progress=progress,
        fault_seed=args.inject_stage_fault,
    )
    elapsed = time.perf_counter() - start
    print(
        f"fuzzed {result.regions} region(s) x {len(systems)} system(s) "
        f"in {elapsed:.1f}s [seed {args.seed}]"
    )
    for name, runs in result.checks.items():
        scope = "(region, backend)" if CHECKS[name].per_backend else "region"
        print(f"  {name:<9} {runs:>5} run(s), one per {scope}: "
              f"{CHECKS[name].title}")
    if result.ok:
        print("all checks clean")
        return 0
    repro_dir = Path(args.repro_dir)
    for failure in result.failures:
        print(failure.describe())
        stem = "-".join(
            p for p in (failure.spec.name, failure.check, failure.system) if p
        )
        path = save_failure(failure, repro_dir / f"{stem}.json")
        print(f"  repro written to {path} "
              f"(rerun: nachos-repro verify --repro {path})")
    print(f"{len(result.failures)} failure(s)")
    return 1


def _cache_command(rest) -> int:
    action = rest[0] if rest else "stats"
    cache = get_cache()
    if action == "stats":
        stats = cache.stats()
        total = stats["hits"] + stats["misses"]
        hit_pct = 100.0 * stats["hits"] / total if total else 0.0
        print(f"cache root: {stats['root']}")
        print(f"code:       {CODE_FINGERPRINT[:16]}")
        print(f"enabled:    {'yes' if stats['enabled'] else 'no'}")
        print(f"entries:    {stats['entries']}")
        print(f"size:       {stats['bytes'] / (1024 * 1024):.1f} MiB")
        print(f"hits:       {stats['hits']}")
        print(f"misses:     {stats['misses']}")
        print(f"hit rate:   {hit_pct:.1f}%")
        return 0
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    print(f"unknown cache action {action!r}; expected 'stats' or 'clear'", file=sys.stderr)
    return 2


def _write_svg(name: str, result, directory: str) -> None:
    import os

    from repro.experiments.charts import chart_for

    chart = chart_for(name, result)
    if chart is None:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.svg")
    chart.save(path)
    print(f"[wrote {path}]")


def _write_json(name: str, result, directory: str) -> None:
    import os

    from repro.experiments.export import save_json

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    save_json(name, result, path)
    print(f"[wrote {path}]")


if __name__ == "__main__":
    raise SystemExit(main())
