"""Table I quantified: what memory disambiguation buys an accelerator.

The paper's Table I classifies accelerators by how they handle memory:
compound-function-unit designs (CFU, C-Cores) serialize memory in
program order; access/program accelerators use an LSQ; NACHOS decouples
them from both.  This experiment quantifies the taxonomy on our regions:

* ``serial-mem`` — the CFU class: strictly in-order memory, no hardware,
* ``opt-lsq``    — the access-accelerator class,
* ``nachos``     — software-driven, hardware-assisted.

The memory-parallel regions (high MLP, many memory ops) show the CFU
class collapsing — exactly the "increase accelerator granularity"
benefit Table I credits NACHOS with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.tables import ascii_table
from repro.experiments.common import DEFAULT_INVOCATIONS
from repro.experiments.regions import workload_for
from repro.runtime.sweep import sweep_comparisons
from repro.workloads.suite import SUITE

GRANULARITY_SYSTEMS = ("serial-mem", "opt-lsq", "nachos")


@dataclass
class GranularityRow:
    name: str
    mlp: int
    n_mem: int
    serial_cycles: int
    lsq_cycles: int
    nachos_cycles: int

    @property
    def serial_slowdown_pct(self) -> float:
        if self.nachos_cycles == 0:
            return 0.0
        return 100.0 * (self.serial_cycles - self.nachos_cycles) / self.nachos_cycles


@dataclass
class GranularityResult:
    rows: List[GranularityRow]

    @property
    def worst(self) -> GranularityRow:
        return max(self.rows, key=lambda r: r.serial_slowdown_pct)

    @property
    def mean_serial_slowdown(self) -> float:
        withmem = [r for r in self.rows if r.n_mem > 0]
        if not withmem:
            return 0.0
        return sum(r.serial_slowdown_pct for r in withmem) / len(withmem)


def run(invocations: int = DEFAULT_INVOCATIONS) -> GranularityResult:
    workloads = [workload_for(spec) for spec in SUITE]
    comparisons = sweep_comparisons(
        workloads, systems=GRANULARITY_SYSTEMS, invocations=invocations
    )
    rows: List[GranularityRow] = []
    for spec, cmp in zip(SUITE, comparisons):
        rows.append(
            GranularityRow(
                name=spec.name,
                mlp=spec.mlp,
                n_mem=len(cmp.workload.graph.memory_ops),
                serial_cycles=cmp.cycles("serial-mem"),
                lsq_cycles=cmp.cycles("opt-lsq"),
                nachos_cycles=cmp.cycles("nachos"),
            )
        )
    return GranularityResult(rows=rows)


def render(result: GranularityResult) -> str:
    headers = ["App", "MLP", "#MEM", "serial-mem", "opt-lsq", "nachos", "serial +%"]
    rows = [
        (r.name, r.mlp, r.n_mem, r.serial_cycles, r.lsq_cycles, r.nachos_cycles,
         f"{r.serial_slowdown_pct:+.0f}")
        for r in result.rows
    ]
    title = (
        "Table I quantified: in-order (CFU-class) memory vs LSQ vs NACHOS "
        f"(mean serial slowdown {result.mean_serial_slowdown:.0f}%, "
        f"worst {result.worst.name})"
    )
    return title + "\n" + ascii_table(headers, rows)
