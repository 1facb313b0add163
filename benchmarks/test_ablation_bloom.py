"""Ablation: bloom-filter geometry in the OPT-LSQ baseline.

The bloom filter is "strictly a best-effort energy optimization"
(Section VIII-C): it only saves the CAM search on a miss.  Shrinking it
raises false-positive hits and CAM energy; growing it saturates.  Swept
on a store-heavy benchmark (real hits) and a load-only one (all hits are
false positives).
"""

from conftest import BENCH_INVOCATIONS, run_once

from repro.experiments.common import run_system
from repro.experiments.regions import workload_for
from repro.sim import LSQConfig
from repro.workloads import get_spec

BITS = (16, 64, 256, 1024, 4096)


def _sweep():
    out = {}
    for name in ("histogram", "sphinx3"):
        workload = workload_for(get_spec(name))
        rows = {}
        for bits in BITS:
            cfg = LSQConfig(bloom_bits=bits)
            run = run_system(
                workload, "opt-lsq", invocations=BENCH_INVOCATIONS,
                lsq_config=cfg,
            )
            assert run.correct, (name, bits)
            stats = run.sim.backend_stats
            rows[bits] = (
                stats.bloom_hit_rate,
                run.sim.energy_breakdown.by_category.get("LSQ-CAM", 0.0),
            )
        out[name] = rows
    return out


def test_bloom_geometry_ablation(benchmark):
    results = run_once(benchmark, _sweep)
    print()
    for name, rows in results.items():
        print(f"{name}:")
        for bits, (hit_rate, cam_energy) in rows.items():
            print(f"  {bits:>5} bits  hit-rate {hit_rate:6.1%}  CAM {cam_energy/1e6:8.2f} MfJ")

    for name, rows in results.items():
        hit_rates = [rows[b][0] for b in BITS]
        # Bigger filters never increase the hit rate.
        assert all(a >= b - 1e-9 for a, b in zip(hit_rates, hit_rates[1:])), name
        # A tiny filter saturates into constant CAM checking.
        assert rows[16][0] > rows[4096][0], name

    # Mostly-load benchmark: a large filter leaves only the real
    # dependence pairs hitting.
    assert results["sphinx3"][4096][0] <= 0.08
    # Store-heavy data-dependent benchmark: real conflicts keep hitting
    # even in a large filter — far more than the mostly-load one.
    assert results["histogram"][4096][0] > 0.10
    assert results["histogram"][4096][0] > 2 * results["sphinx3"][4096][0]
