"""Idiom x system matrix: the microbenchmarks under every backend.

Runs the eight memory idioms of :mod:`repro.workloads.micro` through all
five disambiguation backends.  The matrix reads like a design guide:
which idiom needs which machinery — and which machinery pays for itself
where.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.tables import ascii_table
from repro.compiler.pipeline import PipelineConfig
from repro.experiments.common import compile_workload, run_system
from repro.workloads.micro import build_micro, micro_names

SYSTEMS = ("serial-mem", "opt-lsq", "spec-lsq", "nachos-sw", "nachos")


@dataclass
class MicroRow:
    name: str
    cycles: Dict[str, int]
    may_mdes: int
    correct: bool

    def best_system(self) -> str:
        return min(self.cycles, key=lambda s: self.cycles[s])


@dataclass
class MicroStudyResult:
    rows: List[MicroRow]

    @property
    def all_correct(self) -> bool:
        return all(r.correct for r in self.rows)


def run(invocations: int = 16) -> MicroStudyResult:
    rows: List[MicroRow] = []
    for name in micro_names():
        workload = build_micro(name)
        cycles: Dict[str, int] = {}
        correct = True
        for system in SYSTEMS:
            result = run_system(workload, system, invocations=invocations)
            cycles[system] = result.sim.cycles
            correct = correct and result.correct
        may_mdes = len(compile_workload(workload, PipelineConfig.full()).may_mdes)
        rows.append(
            MicroRow(name=name, cycles=cycles, may_mdes=may_mdes, correct=correct)
        )
    return MicroStudyResult(rows=rows)


def render(result: MicroStudyResult) -> str:
    headers = ["idiom"] + list(SYSTEMS) + ["MAY MDEs", "best", "ok"]
    rows = [
        tuple(
            [r.name]
            + [r.cycles[s] for s in SYSTEMS]
            + [r.may_mdes, r.best_system(), "y" if r.correct else "N"]
        )
        for r in result.rows
    ]
    return "Microbenchmark idiom x system matrix (cycles)\n" + ascii_table(
        headers, rows
    )
