"""Ablation: cache size vs the cost of MAY serialization.

NACHOS-SW's slowdown comes from serializing memory operations that then
*miss*: a serialized chain of L2 hits costs ~25 cycles per link, a chain
of L1 hits only ~3.  Sweeping the L1 size on a MAY-heavy streaming
benchmark should therefore modulate the NACHOS-SW gap while leaving
NACHOS (which overlaps the misses) comparatively flat.
"""

from conftest import BENCH_INVOCATIONS, run_once

from repro.experiments.common import run_system
from repro.experiments.regions import workload_for
from repro.memory.config import CacheConfig, HierarchyConfig
from repro.workloads import get_spec

L1_SIZES = (4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024)


def _sweep():
    workload = workload_for(get_spec("soplex"))
    out = {}
    for size in L1_SIZES:
        cfg = HierarchyConfig(l1=CacheConfig("L1", size, 4, latency=3))
        runs = {
            system: run_system(
                workload, system, invocations=BENCH_INVOCATIONS,
                hierarchy_config=cfg,
            )
            for system in ("opt-lsq", "nachos-sw", "nachos")
        }
        assert all(run.correct for run in runs.values()), size
        out[size] = {s: run.sim.cycles for s, run in runs.items()}
    return out


def test_cache_size_ablation(benchmark):
    results = run_once(benchmark, _sweep)
    print()
    print(f"{'L1 size':>9} {'opt-lsq':>9} {'nachos-sw':>10} {'nachos':>9} {'SW gap %':>9}")
    for size, runs in results.items():
        gap = 100.0 * (runs["nachos-sw"] - runs["opt-lsq"]) / runs["opt-lsq"]
        print(f"{size//1024:>7}KB {runs['opt-lsq']:>9} {runs['nachos-sw']:>10} "
              f"{runs['nachos']:>9} {gap:>+8.1f}")

    # Serialization hurts at every size...
    for size, runs in results.items():
        assert runs["nachos-sw"] >= runs["opt-lsq"], size
        # ...but NACHOS stays within a whisker of the LSQ.
        assert runs["nachos"] <= runs["opt-lsq"] * 1.1, size
    # Bigger caches shrink everyone's cycles.
    sizes = sorted(results)
    assert results[sizes[-1]]["opt-lsq"] <= results[sizes[0]]["opt-lsq"]
