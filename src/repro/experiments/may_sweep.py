"""Causal sweep: how the MAY fraction drives the system gap.

Figure 10 correlates %MAY with NACHOS-SW's fate across benchmarks; this
extension makes the relationship causal.  A parametric workload family
holds everything fixed (ops, memory ops, MLP, stride, dependence
structure) and sweeps only the fraction of memory operations drawn from
the opaque-pointer mechanism from 0% to 100%.  Expected shape:

* NACHOS-SW's slowdown vs OPT-LSQ grows monotonically-ish with %MAY
  (serialization in, performance out),
* NACHOS stays flat — the comparator converts compiler uncertainty into
  a per-check cost instead of a serialization cost,
* NACHOS's MDE energy grows linearly with the retained MAY edges (the
  appendix's pay-as-you-go line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.tables import ascii_table
from repro.compiler.labels import AliasLabel
from repro.compiler.pipeline import PipelineConfig
from repro.experiments.common import compile_workload
from repro.runtime.sweep import sweep_comparisons
from repro.workloads.generator import build_workload
from repro.workloads.spec import BenchmarkSpec, Mechanism


def _spec(may_fraction: float) -> BenchmarkSpec:
    opaque = round(may_fraction, 2)
    mix = {Mechanism.PARAM_OPAQUE: opaque, Mechanism.DISTINCT: round(1 - opaque, 2)}
    mix = {m: w for m, w in mix.items() if w > 0}
    return BenchmarkSpec(
        name=f"sweep-may-{int(may_fraction * 100)}",
        suite="synthetic",
        n_ops=160,
        n_mem=32,
        mlp=8,
        store_frac=0.3,
        stride=64,
        mechanism_mix=mix,
        chain_length=1,
    )


@dataclass
class SweepPoint:
    may_fraction: float
    pct_may_pairs: float         # measured at compile time
    sw_slowdown_pct: float       # NACHOS-SW vs OPT-LSQ
    nachos_slowdown_pct: float
    may_mdes: int
    correct: bool


@dataclass
class MaySweepResult:
    points: List[SweepPoint]

    @property
    def all_correct(self) -> bool:
        return all(p.correct for p in self.points)


def run(
    invocations: int = 20,
    fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
) -> MaySweepResult:
    workloads = [build_workload(_spec(frac)) for frac in fractions]
    comparisons = sweep_comparisons(workloads, invocations=invocations)
    points: List[SweepPoint] = []
    for frac, cmp in zip(fractions, comparisons):
        pipeline = compile_workload(cmp.workload, PipelineConfig.full())
        points.append(
            SweepPoint(
                may_fraction=frac,
                pct_may_pairs=100.0
                * pipeline.final_labels.fraction(AliasLabel.MAY),
                sw_slowdown_pct=cmp.slowdown_pct("nachos-sw"),
                nachos_slowdown_pct=cmp.slowdown_pct("nachos"),
                may_mdes=len(pipeline.may_mdes),
                correct=cmp.all_correct,
            )
        )
    return MaySweepResult(points=points)


def render(result: MaySweepResult) -> str:
    headers = ["opaque frac", "%MAY pairs", "SW %", "NACHOS %", "MAY MDEs", "ok"]
    rows = [
        (f"{p.may_fraction:.2f}", f"{p.pct_may_pairs:.1f}",
         f"{p.sw_slowdown_pct:+.1f}", f"{p.nachos_slowdown_pct:+.1f}",
         p.may_mdes, "y" if p.correct else "N")
        for p in result.points
    ]
    return (
        "MAY sweep: compiler uncertainty in, serialization out "
        "(NACHOS-SW); flat under NACHOS\n" + ascii_table(headers, rows)
    )
