"""Figure 17 — NACHOS energy breakdown and savings vs OPT-LSQ.

Per benchmark (hottest region): NACHOS's dynamic energy split into
COMPUTE / MDE / L1, the MDE share (the cost of memory ordering), and the
net energy saving against the optimized LSQ.  The paper's headline: MDEs
cost ~6% of total on average and nothing at all in 15 of 27 workloads;
net saving ~21% (12--40%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import ascii_table
from repro.energy.accounting import COMPUTE, L1, MDE
from repro.experiments.common import DEFAULT_INVOCATIONS
from repro.experiments.regions import workload_for
from repro.runtime.sweep import sweep_comparisons
from repro.workloads.suite import SUITE


@dataclass
class Fig17Row:
    name: str
    pct_compute: float
    pct_mde: float
    pct_l1: float
    pct_mem_ops: float          # the number on each bar in the paper
    saving_vs_lsq_pct: float    # positive = NACHOS cheaper


@dataclass
class Fig17Result:
    rows: List[Fig17Row]

    @property
    def mean_mde_pct(self) -> float:
        return sum(r.pct_mde for r in self.rows) / len(self.rows)

    @property
    def zero_overhead_workloads(self) -> List[str]:
        return [r.name for r in self.rows if r.pct_mde < 0.05]

    @property
    def mean_saving_pct(self) -> float:
        return sum(r.saving_vs_lsq_pct for r in self.rows) / len(self.rows)


def run(invocations: int = DEFAULT_INVOCATIONS) -> Fig17Result:
    workloads = [workload_for(spec) for spec in SUITE]
    comparisons = sweep_comparisons(
        workloads, systems=("opt-lsq", "nachos"), invocations=invocations
    )
    rows: List[Fig17Row] = []
    for spec, cmp in zip(SUITE, comparisons):
        nachos = cmp.runs["nachos"].sim
        breakdown = nachos.energy_breakdown
        total = breakdown.total or 1.0
        lsq_total = cmp.energy("opt-lsq") or 1.0
        graph = cmp.workload.graph
        rows.append(
            Fig17Row(
                name=spec.name,
                pct_compute=100.0 * breakdown.by_category.get(COMPUTE, 0.0) / total,
                pct_mde=100.0 * breakdown.by_category.get(MDE, 0.0) / total,
                pct_l1=100.0 * breakdown.by_category.get(L1, 0.0) / total,
                pct_mem_ops=100.0 * len(graph.memory_ops) / len(graph),
                saving_vs_lsq_pct=100.0 * (1.0 - nachos.total_energy / lsq_total),
            )
        )
    return Fig17Result(rows=rows)


def render(result: Fig17Result) -> str:
    headers = ["App", "%COMPUTE", "%MDE", "%L1", "%mem-ops", "saving vs LSQ"]
    rows = [
        (r.name, f"{r.pct_compute:.1f}", f"{r.pct_mde:.2f}", f"{r.pct_l1:.1f}",
         f"{r.pct_mem_ops:.0f}", f"{r.saving_vs_lsq_pct:+.1f}%")
        for r in result.rows
    ]
    title = (
        f"Figure 17: NACHOS energy (MDE mean {result.mean_mde_pct:.1f}%; "
        f"{len(result.zero_overhead_workloads)} workloads with no MDE energy; "
        f"mean saving {result.mean_saving_pct:.1f}%)"
    )
    return title + "\n" + ascii_table(headers, rows)
