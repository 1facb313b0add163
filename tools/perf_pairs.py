#!/usr/bin/env python3
"""Paired perfbench gate: this tree against a base tree.

Usage::

    git worktree add --detach ../base "$(git merge-base HEAD origin/main)"
    python3 tools/perf_pairs.py ../base

For every workload in this tree's ``BENCHMARK.json`` the tool runs
:data:`PAIRS` pairs of ::

    python3 <tree>/perfbench/run.py --workload W --seed <i+1> \\
        --seconds <run_seconds> --trace 0

under ``PYTHONHASHSEED=0``, once on the base tree and once on this tree,
alternating which side runs first.  Each tree runs its own
``perfbench/run.py``, which puts that tree's ``src/`` first on the path.
Workloads, ``run_seconds`` and each end-to-end metric's bound and
direction all come from ``BENCHMARK.json``, so nothing here needs
keeping in step with it.

Verdicts, per (workload, metric):

* **FAIL** when the change's median is worse than the parent's by more
  than the metric's bound;
* **unresolved** (not a failure) when the parent's own quartile spread
  over its median exceeds the bound, unless every change run reads worse
  than every parent run, which fails;
* ``rss_peak_mb`` is compared only across pairs whose runs measured the
  same number of passes (a later pass forks its workers from a larger
  parent), and is unresolved when no pair qualifies.

A workload also fails when any change run says ``"correct": false`` or
the change's share of failed items is higher than the parent's.  The
tool prints one table and exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pairs per workload.  Pair ``i`` runs seed ``i + 1`` on both sides.
PAIRS = 5

#: Metrics whose value depends on how many passes fit in the window.
PASS_COUNT_METRICS = ("rss_peak_mb",)

OK, FAIL, UNRESOLVED = "ok", "FAIL", "unresolved"

_PASSES_LINE = re.compile(r"^\s*untraced: (\d+) passes\b", re.MULTILINE)


@dataclass(frozen=True)
class Run:
    """What one perfbench run reported."""

    correct: bool
    attempted: int
    failed: int
    passes: int
    metrics: Dict[str, float]


@dataclass(frozen=True)
class Row:
    """One line of the verdict table."""

    workload: str
    metric: str
    parent: float
    change: float
    delta: float
    bound: float
    verdict: str
    note: str = ""


Pair = Tuple[Run, Run]  # (parent, change), same seed


def parse_run(stdout: str) -> Run:
    """Read a perfbench ``--trace 0`` stdout: its ``untraced: N passes``
    line and its closing JSON line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("perfbench printed no result line")
    result = json.loads(lines[-1])
    match = _PASSES_LINE.search(stdout)
    if match is None:
        raise ValueError("perfbench printed no 'untraced: N passes' line")
    return Run(
        correct=bool(result["correct"]),
        attempted=int(result["attempted"]),
        failed=int(result["failed"]),
        passes=int(match.group(1)),
        metrics={k: float(v["value"]) for k, v in result["metrics"].items()},
    )


def compare_metric(workload: str, spec: dict, pairs: Sequence[Pair]) -> Row:
    """The verdict for one end-to-end metric over *pairs*."""
    name, bound = spec["name"], float(spec["bound"])
    sign = 1.0 if spec["better"] == "lower" else -1.0
    note = ""
    if name in PASS_COUNT_METRICS:
        kept = [(p, c) for p, c in pairs if p.passes == c.passes]
        if len(kept) < len(pairs):
            note = f"{len(kept)}/{len(pairs)} pairs with equal pass counts"
        pairs = kept
    if not pairs:
        return Row(workload, name, math.nan, math.nan, math.nan, bound,
                   UNRESOLVED, note)
    parent = [p.metrics[name] for p, _ in pairs]
    change = [c.metrics[name] for _, c in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    delta = (c_med - p_med) / p_med
    verdict = FAIL if sign * delta > bound else OK
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = (q3 - q1) / p_med
        if spread > bound:
            all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
            verdict = FAIL if all_worse else UNRESOLVED
            note = "; ".join(filter(None, [note, f"parent spread {spread:.2f}"]))
    return Row(workload, name, p_med, c_med, delta, bound, verdict, note)


def compare_failures(workload: str, pairs: Sequence[Pair]) -> Row:
    """Failed-item shares; any incorrect change run fails too."""

    def share(runs: List[Run]) -> float:
        attempted = sum(r.attempted for r in runs)
        return sum(r.failed for r in runs) / attempted if attempted else 0.0

    parent = share([p for p, _ in pairs])
    change = share([c for _, c in pairs])
    incorrect = sum(not c.correct for _, c in pairs)
    verdict = FAIL if change > parent or incorrect else OK
    note = f"{incorrect} change run(s) not correct" if incorrect else ""
    return Row(workload, "failed_share", parent, change, change - parent, 0.0,
               verdict, note)


def verdicts(workload: str, specs: Sequence[dict], pairs: Sequence[Pair]) -> List[Row]:
    return [compare_metric(workload, spec, pairs) for spec in specs] + [
        compare_failures(workload, pairs)
    ]


def render(rows: Sequence[Row]) -> str:
    head = (f"{'workload':<17} {'metric':<17} {'parent median':>14} "
            f"{'change median':>14} {'delta':>8} {'bound':>6}  verdict")
    out = [head, "-" * len(head)]
    for r in rows:
        delta = "n/a" if math.isnan(r.delta) else f"{r.delta:+.1%}"
        line = (f"{r.workload:<17} {r.metric:<17} {r.parent:>14.4g} "
                f"{r.change:>14.4g} {delta:>8} {r.bound:>6.2f}  {r.verdict}")
        out.append(line + (f" ({r.note})" if r.note else ""))
    return "\n".join(out)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except ValueError as exc:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} (exit {proc.returncode}): {exc}")


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/perf_pairs.py BASE_DIR", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    rows: List[Row] = []
    for workload in (w["name"] for w in spec["workloads"]):
        pairs: List[Pair] = []
        for i in range(PAIRS):
            seed = i + 1
            order = (("parent", base), ("change", REPO_ROOT))
            runs = {}
            for side, tree in order if i % 2 == 0 else order[::-1]:
                runs[side] = _run(tree, workload, seed, seconds)
                print(f"[{workload} pair {seed}/{PAIRS} {side}: "
                      f"{runs[side].passes} passes, "
                      f"throughput {runs[side].metrics['throughput_per_s']:.4g}/s]",
                      flush=True)
            pairs.append((runs["parent"], runs["change"]))
        rows += verdicts(workload, spec["end_to_end"], pairs)
    print(render(rows))
    failed = [r for r in rows if r.verdict == FAIL]
    if failed:
        names = ", ".join(f"{r.workload} {r.metric}" for r in failed)
        print(f"FAIL: {names}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
