"""Region materialization shared by the compile-time figures.

Figures 6/7/9/14/16 and Table II operate on compiled regions only (no
cycle simulation).  This module materializes the 135-region corpus (27
benchmarks x top-5 paths), one workload per (benchmark, path) within one
process, and compiles each through
:func:`~repro.experiments.common.compile_workload`, so a compile is
kept in-process and in the on-disk result cache like every other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.pipeline import PipelineConfig, PipelineResult
from repro.experiments import common
from repro.workloads.generator import Workload, build_workload
from repro.workloads.suite import SUITE
from repro.workloads.spec import BenchmarkSpec

_workload_cache: Dict[Tuple[str, int], Workload] = {}


def workload_for(spec: BenchmarkSpec, path_index: int = 0) -> Workload:
    key = (spec.name, path_index)
    if key not in _workload_cache:
        _workload_cache[key] = build_workload(spec, path_index)
    return _workload_cache[key]


def compiled_region(
    spec: BenchmarkSpec,
    path_index: int = 0,
    config: Optional[PipelineConfig] = None,
) -> PipelineResult:
    cfg = config or PipelineConfig.full()
    return common.compile_workload(workload_for(spec, path_index), cfg)


@dataclass
class RegionSet:
    """Compiled top-k regions of one benchmark."""

    spec: BenchmarkSpec
    results: List[PipelineResult]


def compile_suite(
    top_k: int = 5, config: Optional[PipelineConfig] = None
) -> List[RegionSet]:
    """Compile the top-*k* regions of every benchmark (135 at k=5)."""
    out = []
    for spec in SUITE:
        results = [compiled_region(spec, k, config) for k in range(top_k)]
        out.append(RegionSet(spec=spec, results=results))
    return out


def clear_caches() -> None:
    _workload_cache.clear()
