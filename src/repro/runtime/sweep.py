"""The sweep layer: fan (workload × system) grids out and reassemble.

Figure modules call :func:`sweep_comparisons` (the cached/parallel
equivalent of looping ``compare_systems``) or :func:`sweep_runs` for a
flat list of single-system runs.  Task order — and therefore result
order — is the deterministic row-major (workload, system) order, so
figures render identically at any ``--jobs`` value.

Both entry points run under the supervised executor
(:mod:`repro.runtime.executor`): a task whose worker dies is requeued
once, and any other fault fails the task at once.  Every completed task
is already in the result cache, so an interrupted sweep resumes by
running it again.  When a task fails, a
:class:`~repro.runtime.executor.SweepError` propagates with the partial
results attached — the CLI catches it per figure and degrades to a
failure report instead of aborting the whole figure set.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.runtime.executor import SimTask, run_tasks


def sweep_runs(
    tasks: Sequence[SimTask],
    jobs: Optional[int] = None,
) -> List[Any]:
    """Run an explicit task list; results align index-for-index."""
    return run_tasks(tasks, jobs=jobs)


def sweep_comparisons(
    workloads: Sequence[Any],
    systems: Optional[Tuple[str, ...]] = None,
    invocations: Optional[int] = None,
    check: bool = True,
    warm: bool = True,
    jobs: Optional[int] = None,
) -> List[Any]:
    """``compare_systems`` for many workloads, fanned across the pool.

    Returns one :class:`~repro.experiments.common.ComparisonResult` per
    workload, in input order.
    """
    from repro.experiments.common import (
        DEFAULT_INVOCATIONS,
        SYSTEMS,
        ComparisonResult,
    )

    if systems is None:
        systems = SYSTEMS
    if invocations is None:
        invocations = DEFAULT_INVOCATIONS
    tasks = [
        SimTask(w, system, invocations, check=check, warm=warm)
        for w in workloads
        for system in systems
    ]
    runs = run_tasks(tasks, jobs=jobs)
    out: List[Any] = []
    i = 0
    for w in workloads:
        cmp = ComparisonResult(workload=w)
        for system in systems:
            cmp.runs[system] = runs[i]
            i += 1
        out.append(cmp)
    return out
