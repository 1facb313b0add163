"""End-to-end offload study: the hybrid executable's bottom line.

Puts the whole Figure-3 system together: the NACHOS-compiled CGRA on one
side, the 4-way OOO host model on the other, memory fences in between,
and NEEDLE's profile weights deciding how much of the program each path
covers.  Per benchmark: the per-path EDP-based offload decisions over
the top-5 regions, and the resulting end-to-end program speedup and
energy ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import ascii_table
from repro.experiments.regions import workload_for
from repro.offload import HostCoreModel, plan_offload
from repro.runtime.executor import SimTask, run_tasks
from repro.workloads.suite import SUITE


@dataclass
class OffloadRow:
    name: str
    offloaded_paths: int
    total_paths: int
    covered_weight: float
    mean_energy_ratio: float      # accel/host on offloaded paths
    program_speedup: float
    program_energy_ratio: float


@dataclass
class OffloadResult:
    rows: List[OffloadRow]

    @property
    def all_offload_something(self) -> bool:
        return all(
            r.offloaded_paths > 0 for r in self.rows if r.total_paths > 0
        )

    @property
    def mean_program_energy_ratio(self) -> float:
        return sum(r.program_energy_ratio for r in self.rows) / len(self.rows)


def run(invocations: int = 12, top_k: int = 3, system: str = "nachos") -> OffloadResult:
    host = HostCoreModel.paper_default()
    all_paths = [
        [workload_for(spec, k) for k in range(top_k)] for spec in SUITE
    ]
    runs = run_tasks(
        [SimTask(w, system, invocations) for paths in all_paths for w in paths]
    )
    rows: List[OffloadRow] = []
    for i, spec in enumerate(SUITE):
        paths = all_paths[i]
        accel_cycles = {}
        accel_energy = {}
        for workload, run_result in zip(paths, runs[i * top_k : (i + 1) * top_k]):
            sim = run_result.sim
            accel_cycles[workload.name] = sim.mean_invocation_cycles
            accel_energy[workload.name] = sim.total_energy / max(1, sim.invocations)
        plan = plan_offload(paths, accel_cycles, accel_energy, host=host)
        offloaded = plan.offloaded
        rows.append(
            OffloadRow(
                name=spec.name,
                offloaded_paths=len(offloaded),
                total_paths=len(paths),
                covered_weight=plan.covered_weight,
                mean_energy_ratio=(
                    sum(d.energy_ratio for d in offloaded) / len(offloaded)
                    if offloaded
                    else 1.0
                ),
                program_speedup=plan.program_speedup(),
                program_energy_ratio=plan.program_energy_ratio(),
            )
        )
    return OffloadResult(rows=rows)


def render(result: OffloadResult) -> str:
    headers = [
        "App", "offloaded", "coverage", "E(accel/host)", "prog speedup",
        "prog energy",
    ]
    rows = [
        (
            r.name,
            f"{r.offloaded_paths}/{r.total_paths}",
            f"{r.covered_weight:.2f}",
            f"{r.mean_energy_ratio:.2f}",
            f"{r.program_speedup:.2f}x",
            f"{r.program_energy_ratio:.2f}x",
        )
        for r in result.rows
    ]
    title = (
        "Offload study (EDP decision, top-3 paths): mean program energy "
        f"{result.mean_program_energy_ratio:.2f}x of host-only"
    )
    return title + "\n" + ascii_table(headers, rows)
