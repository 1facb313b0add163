"""Limit study: what could a perfect compiler do, and where does
hardware remain necessary?

Three systems on each benchmark's hottest region:

* ``nachos-sw``   — the real four-stage compiler, software-only,
* ``oracle-sw``   — software-only with *perfect* (trace-derived) alias
  knowledge: the ceiling of any conceivable static analysis,
* ``nachos``      — the real compiler plus the runtime ``==?`` checks.

Readings:

* ``oracle-sw`` ≈ ``nachos-sw``: the real pipeline already extracts all
  statically-knowable independence (the stage-1..4 machinery is not the
  bottleneck),
* ``nachos`` < ``oracle-sw``: the remaining gap is *fundamentally*
  dynamic — the same pair conflicts in some invocations and not others,
  so no static schedule can have it both ways.  The data-dependent
  benchmarks (histogram, scatter-like patterns) live here; that gap is
  the paper's case for the hardware assist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import ascii_table
from repro.experiments.common import DEFAULT_INVOCATIONS
from repro.experiments.regions import workload_for
from repro.runtime.executor import SimTask, run_tasks
from repro.workloads.suite import SUITE

LIMIT_SYSTEMS = ("nachos-sw", "oracle-sw", "nachos")


@dataclass
class LimitRow:
    name: str
    nachos_sw_cycles: int
    oracle_sw_cycles: int
    nachos_cycles: int
    oracle_mdes: int
    correct: bool

    @property
    def compiler_gap_pct(self) -> float:
        """How much better a perfect compiler would do than ours."""
        if self.oracle_sw_cycles == 0:
            return 0.0
        return 100.0 * (self.nachos_sw_cycles - self.oracle_sw_cycles) / self.oracle_sw_cycles

    @property
    def hardware_gap_pct(self) -> float:
        """What runtime checks buy beyond *any* static analysis."""
        if self.nachos_cycles == 0:
            return 0.0
        return 100.0 * (self.oracle_sw_cycles - self.nachos_cycles) / self.nachos_cycles


@dataclass
class LimitResult:
    rows: List[LimitRow]

    @property
    def all_correct(self) -> bool:
        return all(r.correct for r in self.rows)

    @property
    def hardware_needed(self) -> List[str]:
        """Benchmarks where even the oracle compiler loses to NACHOS."""
        return [r.name for r in self.rows if r.hardware_gap_pct > 4.0]


def run(invocations: int = DEFAULT_INVOCATIONS) -> LimitResult:
    workloads = [workload_for(spec) for spec in SUITE]
    runs = run_tasks(
        [
            SimTask(w, system, invocations)
            for w in workloads
            for system in LIMIT_SYSTEMS
        ]
    )
    rows: List[LimitRow] = []
    for i, spec in enumerate(SUITE):
        sw, oracle, hw = runs[3 * i : 3 * i + 3]
        rows.append(
            LimitRow(
                name=spec.name,
                nachos_sw_cycles=sw.sim.cycles,
                oracle_sw_cycles=oracle.sim.cycles,
                nachos_cycles=hw.sim.cycles,
                oracle_mdes=oracle.n_mdes,
                correct=sw.correct and hw.correct and oracle.correct,
            )
        )
    return LimitResult(rows=rows)


def render(result: LimitResult) -> str:
    headers = [
        "App", "nachos-sw", "oracle-sw", "nachos", "compiler gap %",
        "hw gap %", "oracle MDEs",
    ]
    rows = [
        (r.name, r.nachos_sw_cycles, r.oracle_sw_cycles, r.nachos_cycles,
         f"{r.compiler_gap_pct:+.1f}", f"{r.hardware_gap_pct:+.1f}", r.oracle_mdes)
        for r in result.rows
    ]
    title = (
        "Limit study: perfect-compiler ceiling vs hardware checks "
        f"(hardware fundamentally needed: {', '.join(result.hardware_needed) or 'none'})"
    )
    return title + "\n" + ascii_table(headers, rows)
