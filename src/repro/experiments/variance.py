"""Seed-variance study: are the headline numbers trace-robust?

Every workload is synthetic: its region layout and invocation trace are
drawn from a seeded generator.  This study rebuilds a set of benchmarks
under several seeds and reports the spread of the headline metric
(NACHOS-SW and NACHOS slowdown vs OPT-LSQ).  The conclusions should be
properties of the benchmark's *structure*, not of one lucky draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.stats import mean
from repro.analysis.tables import ascii_table
from repro.runtime.sweep import sweep_comparisons
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

DEFAULT_BENCHES = ("soplex", "histogram", "464.h264ref", "equake", "bzip2")
DEFAULT_SEEDS = (11, 23, 37, 51, 73)


@dataclass
class VarianceRow:
    name: str
    sw_samples: List[float]
    nachos_samples: List[float]
    correct: bool

    @property
    def sw_mean(self) -> float:
        return mean(self.sw_samples)

    @property
    def nachos_mean(self) -> float:
        return mean(self.nachos_samples)

    @property
    def sign_stable(self) -> bool:
        """All samples agree on which side of +/-4% the benchmark sits."""
        def cls(x: float) -> int:
            return 1 if x > 4.0 else (-1 if x < -4.0 else 0)

        kinds = {cls(x) for x in self.sw_samples}
        return len(kinds) == 1 or kinds <= {0, 1} or kinds <= {0, -1}


@dataclass
class VarianceResult:
    rows: List[VarianceRow]
    seeds: Sequence[int]

    @property
    def all_correct(self) -> bool:
        return all(r.correct for r in self.rows)


def run(
    invocations: int = 16,
    benches: Sequence[str] = DEFAULT_BENCHES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> VarianceResult:
    workloads = [
        build_workload(get_spec(name), seed=seed)
        for name in benches
        for seed in seeds
    ]
    comparisons = sweep_comparisons(workloads, invocations=invocations)
    rows: List[VarianceRow] = []
    for i, name in enumerate(benches):
        per_bench = comparisons[i * len(seeds) : (i + 1) * len(seeds)]
        sw = [cmp.slowdown_pct("nachos-sw") for cmp in per_bench]
        nachos = [cmp.slowdown_pct("nachos") for cmp in per_bench]
        correct = all(cmp.all_correct for cmp in per_bench)
        rows.append(
            VarianceRow(
                name=name, sw_samples=sw, nachos_samples=nachos, correct=correct
            )
        )
    return VarianceResult(rows=rows, seeds=seeds)


def render(result: VarianceResult) -> str:
    headers = ["App", "SW mean %", "SW min..max", "NACHOS mean %", "stable", "ok"]
    rows = [
        (
            r.name,
            f"{r.sw_mean:+.1f}",
            f"{min(r.sw_samples):+.0f}..{max(r.sw_samples):+.0f}",
            f"{r.nachos_mean:+.1f}",
            "y" if r.sign_stable else "N",
            "y" if r.correct else "N",
        )
        for r in result.rows
    ]
    title = (
        f"Seed-variance study over {len(result.seeds)} generator seeds "
        "(conclusions must not depend on one draw)"
    )
    return title + "\n" + ascii_table(headers, rows)
