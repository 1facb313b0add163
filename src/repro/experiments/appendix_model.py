"""Appendix — limits of decentralized checking.

Evaluates the analytic model ``TOT_nachos / TOT_lsq ~= (Pairs_may / N) *
(E_may / E_lsq)`` on the measured region characteristics and checks the
profitability condition: decentralized checking wins while the average
number of MAY aliases per memory operation stays below ``E_lsq / E_may``
(6 with the paper's conservative costs).  The paper finds only seven
benchmarks above ratio 1 (bzip2, soplex, povray, fft, freqmine, sar,
histogram) and all below 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import ascii_table
from repro.energy.model import DecentralizedCheckModel
from repro.experiments.regions import compiled_region
from repro.workloads.suite import SUITE


@dataclass
class AppendixRow:
    name: str
    n_mem: int
    pairs_may: int
    ratio: float            # MAY aliases per memory op
    energy_ratio: float     # TOT_nachos / TOT_lsq
    profitable: bool


@dataclass
class AppendixResult:
    model: DecentralizedCheckModel
    rows: List[AppendixRow]

    @property
    def over_ratio_1(self) -> List[str]:
        return [r.name for r in self.rows if r.ratio > 1.0]


def run(model: DecentralizedCheckModel = DecentralizedCheckModel()) -> AppendixResult:
    rows: List[AppendixRow] = []
    for spec in SUITE:
        result = compiled_region(spec)
        n_mem = len(result.graph.memory_ops)
        pairs_may = len(result.may_mdes)
        pairs_must = len(result.must_mdes)
        rows.append(
            AppendixRow(
                name=spec.name,
                n_mem=n_mem,
                pairs_may=pairs_may,
                ratio=pairs_may / n_mem if n_mem else 0.0,
                energy_ratio=model.nachos_vs_lsq(n_mem, pairs_may, pairs_must),
                profitable=model.profitable(n_mem, pairs_may),
            )
        )
    return AppendixResult(model=model, rows=rows)


def render(result: AppendixResult) -> str:
    headers = ["App", "#MEM", "MAY MDEs", "MAY/op", "E_n/E_lsq", "profitable"]
    rows = [
        (r.name, r.n_mem, r.pairs_may, f"{r.ratio:.2f}", f"{r.energy_ratio:.3f}",
         "yes" if r.profitable else "NO")
        for r in result.rows
    ]
    title = (
        "Appendix: decentralized checking limit model "
        f"(breakeven {result.model.breakeven_ratio:.1f} MAY aliases/op; "
        f"ratio>1: {', '.join(result.over_ratio_1) or 'none'})"
    )
    return title + "\n" + ascii_table(headers, rows)
