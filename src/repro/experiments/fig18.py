"""Figure 18 — OPT-LSQ dynamic energy breakdown and bloom behaviour.

Per benchmark (hottest region): the LSQ baseline's energy split into
COMPUTE / LSQ-BLOOM / LSQ-CAM / L1, plus the bloom-filter hit rate table
from the bottom of the paper's figure.  The paper's headline: the
optimized LSQ consumes ~27% of total energy (accelerator + L1); nine
benchmarks have perfect (zero-hit) bloom behaviour; store-heavy workloads
(bodytrack, fft-2d, freqmine, sar-pfa-interp1, histogram) exceed 20%
bloom hits and pay the CAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.tables import ascii_table
from repro.energy.accounting import COMPUTE, L1, LSQ_BLOOM, LSQ_CAM
from repro.experiments.common import DEFAULT_INVOCATIONS
from repro.experiments.regions import workload_for
from repro.runtime.executor import SimTask, run_tasks
from repro.workloads.suite import SUITE

BLOOM_CLASSES = ("0", "0-10", "10-20", "20+")


def bloom_class(hit_pct: float) -> str:
    if hit_pct == 0.0:
        return "0"
    if hit_pct < 10.0:
        return "0-10"
    if hit_pct < 20.0:
        return "10-20"
    return "20+"


@dataclass
class Fig18Row:
    name: str
    pct_compute: float
    pct_bloom: float
    pct_cam: float
    pct_l1: float
    bloom_hit_pct: float
    pct_mem_ops: float

    @property
    def lsq_pct(self) -> float:
        return self.pct_bloom + self.pct_cam


@dataclass
class Fig18Result:
    rows: List[Fig18Row]

    @property
    def mean_lsq_pct(self) -> float:
        return sum(r.lsq_pct for r in self.rows) / len(self.rows)

    def bloom_table(self) -> Dict[str, List[str]]:
        table: Dict[str, List[str]] = {c: [] for c in BLOOM_CLASSES}
        for r in self.rows:
            table[bloom_class(r.bloom_hit_pct)].append(r.name)
        return table


def run(invocations: int = DEFAULT_INVOCATIONS) -> Fig18Result:
    workloads = [workload_for(spec) for spec in SUITE]
    runs = run_tasks([SimTask(w, "opt-lsq", invocations) for w in workloads])
    rows: List[Fig18Row] = []
    for spec, workload, run_result in zip(SUITE, workloads, runs):
        sim = run_result.sim
        breakdown = sim.energy_breakdown
        total = breakdown.total or 1.0
        graph = workload.graph
        rows.append(
            Fig18Row(
                name=spec.name,
                pct_compute=100.0 * breakdown.by_category.get(COMPUTE, 0.0) / total,
                pct_bloom=100.0 * breakdown.by_category.get(LSQ_BLOOM, 0.0) / total,
                pct_cam=100.0 * breakdown.by_category.get(LSQ_CAM, 0.0) / total,
                pct_l1=100.0 * breakdown.by_category.get(L1, 0.0) / total,
                bloom_hit_pct=100.0 * sim.backend_stats.bloom_hit_rate,
                pct_mem_ops=100.0 * len(graph.memory_ops) / len(graph),
            )
        )
    return Fig18Result(rows=rows)


def render(result: Fig18Result) -> str:
    headers = ["App", "%COMPUTE", "%BLOOM", "%CAM", "%L1", "bloom-hit%", "%mem"]
    rows = [
        (r.name, f"{r.pct_compute:.1f}", f"{r.pct_bloom:.1f}", f"{r.pct_cam:.1f}",
         f"{r.pct_l1:.1f}", f"{r.bloom_hit_pct:.1f}", f"{r.pct_mem_ops:.0f}")
        for r in result.rows
    ]
    out = [
        f"Figure 18: OPT-LSQ dynamic energy (LSQ mean {result.mean_lsq_pct:.1f}% of total)",
        ascii_table(headers, rows),
        "",
        "Bloom hit classes:",
    ]
    for cls, names in result.bloom_table().items():
        out.append(f"  {cls:>6}: {', '.join(names) or '-'}")
    return "\n".join(out)
