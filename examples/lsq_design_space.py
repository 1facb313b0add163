#!/usr/bin/env python
"""LSQ design-space exploration (paper Section VIII-C, Challenge 2).

"Determining size and ports is challenging since acceleration regions
across our workloads tend to have varied memory behavior" — this example
makes that concrete.  It sweeps the OPT-LSQ geometry (banks x entries)
over two very different regions:

* ``bzip2``  — MLP 128, 110 memory ops: needs a *large* LSQ,
* ``parser`` — MLP 4, 12 memory ops: a large LSQ is pure waste,

and reports cycles for each point, plus the NACHOS result — which has no
structure to size at all — as the reference line.

Run:  python examples/lsq_design_space.py
"""

from repro import get_spec
from repro.experiments.common import run_system
from repro.sim import LSQConfig
from repro.workloads import build_workload

INVOCATIONS = 25
GEOMETRIES = [
    ("1x8", LSQConfig(banks=1, entries_per_bank=8)),
    ("2x16", LSQConfig(banks=2, entries_per_bank=16)),
    ("4x48", LSQConfig(banks=4, entries_per_bank=48)),  # paper default
    ("8x48", LSQConfig(banks=8, entries_per_bank=48)),
]


def main():
    for name in ("bzip2", "parser"):
        spec = get_spec(name)
        workload = build_workload(spec)
        print(f"\n{name}: {spec.n_mem} memory ops, MLP {spec.mlp}")
        print(f"  {'LSQ geometry':>14} {'cycles':>9} {'entries provisioned':>20}")
        for label, cfg in GEOMETRIES:
            run = run_system(
                workload, "opt-lsq", invocations=INVOCATIONS, lsq_config=cfg
            )
            provisioned = cfg.banks * cfg.entries_per_bank
            print(f"  {label:>14} {run.sim.cycles:>9} {provisioned:>20}")
        nachos = run_system(workload, "nachos", invocations=INVOCATIONS)
        print(f"  {'NACHOS':>14} {nachos.sim.cycles:>9} {'none (pairwise ==?)':>20}")

    print(
        "\nUndersized LSQs stall the wide region (head-of-line blocking on\n"
        "full banks) yet are already oversized for the narrow one; NACHOS\n"
        "scales both ways because the compiler provisions exactly the\n"
        "checks each region needs."
    )


if __name__ == "__main__":
    main()
