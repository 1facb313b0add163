"""Sweep execution runtime: caching, fingerprints, and the supervised pool.

Import graph note: :mod:`repro.experiments.common` imports the cache and
fingerprint submodules, and :mod:`repro.runtime.executor` imports
``run_system`` lazily inside its worker function — keep it that way to
avoid an import cycle.
"""

from repro.runtime.cache import ResultCache, configure_cache, get_cache
from repro.runtime.chaos import ChaosSpec, get_chaos, parse_chaos, set_chaos
from repro.runtime.executor import (
    SimTask,
    SweepError,
    SweepOutcome,
    TaskFailure,
    get_jobs,
    run_tasks,
    run_tasks_detailed,
    set_jobs,
)
from repro.runtime.fingerprint import (
    CODE_FINGERPRINT,
    combine,
    config_fingerprint,
    envs_fingerprint,
    graph_fingerprint,
)
from repro.runtime.sweep import sweep_comparisons

__all__ = [
    "CODE_FINGERPRINT",
    "ChaosSpec",
    "ResultCache",
    "SimTask",
    "SweepError",
    "SweepOutcome",
    "TaskFailure",
    "combine",
    "config_fingerprint",
    "configure_cache",
    "envs_fingerprint",
    "get_cache",
    "get_chaos",
    "get_jobs",
    "graph_fingerprint",
    "parse_chaos",
    "run_tasks",
    "run_tasks_detailed",
    "set_chaos",
    "set_jobs",
    "sweep_comparisons",
]
