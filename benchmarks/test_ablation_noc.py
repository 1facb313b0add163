"""Ablation: dynamic link contention on the operand network.

The paper's CGRA uses a *static* (compiler-scheduled, conflict-free)
mesh; our default matches.  This bench turns dynamic single-operand-per-
link-per-cycle contention on and measures what a dynamically-arbitrated
network would cost — and checks the system comparison (the point of the
study) is insensitive to the choice.
"""

from conftest import BENCH_INVOCATIONS, run_once

from repro.experiments.common import run_system
from repro.experiments.regions import workload_for
from repro.sim.config import EngineConfig
from repro.workloads import get_spec

PICKS = ("equake", "soplex", "histogram")


def _sweep():
    out = {}
    for name in PICKS:
        workload = workload_for(get_spec(name))
        per_mode = {}
        for contention in (False, True):
            cfg = EngineConfig(model_link_contention=contention)
            runs = {
                system: run_system(
                    workload, system, invocations=BENCH_INVOCATIONS,
                    engine_config=cfg,
                )
                for system in ("opt-lsq", "nachos-sw", "nachos")
            }
            assert all(run.correct for run in runs.values()), (name, contention)
            per_mode[contention] = {s: run.sim.cycles for s, run in runs.items()}
        out[name] = per_mode
    return out


def test_noc_contention_ablation(benchmark):
    results = run_once(benchmark, _sweep)
    print()
    print(f"{'benchmark':>12} {'mode':>10} {'opt-lsq':>9} {'nachos-sw':>10} {'nachos':>9}")
    for name, modes in results.items():
        for contention, runs in modes.items():
            mode = "dynamic" if contention else "static"
            print(f"{name:>12} {mode:>10} {runs['opt-lsq']:>9} "
                  f"{runs['nachos-sw']:>10} {runs['nachos']:>9}")

    for name, modes in results.items():
        for system in ("opt-lsq", "nachos-sw", "nachos"):
            # Contention only ever adds cycles.
            assert modes[True][system] >= modes[False][system], (name, system)
        # The comparison's *sign* is network-model invariant: whoever is
        # slower stays slower.
        for contention in (False, True):
            runs = modes[contention]
            sw_slower = runs["nachos-sw"] >= runs["nachos"]
            assert sw_slower, (name, contention)
