"""Run one (workload, system) simulation with a live tracer attached.

The cached sweep path (:func:`repro.experiments.common.run_system`)
serves most runs straight from the content-addressed store, which is
exactly wrong for tracing — a trace needs a live engine.  A traced run
goes through the sweep's own set-up and simulation code (compile, MDE
choice, placement, address streams, warm-up, golden check — all
trace-agnostic and shared through the same memos and caches), but
always simulates fresh, warmed, with a new tracer wired in, and never
writes the traced result back to the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.obs.tracer import Tracer

# NOTE: repro.sim imports are deferred into the function bodies — the
# engine itself imports repro.obs.tracer, so importing sim here would
# close an import cycle through the obs package __init__.


@dataclass
class TracedRun:
    """Everything a traced simulation produces."""

    sim: Any                      # repro.sim.result.SimResult
    tracer: Tracer
    graph: Any                    # the workload's graph
    mdes: Tuple[Any, ...]         # the MDEs the backend enforced
    placement: Any
    correct: bool


def resolve_workload(name: str):
    """A workload from a micro name (``gather``/``micro.gather``) or a
    suite benchmark name (``bzip2``, hottest path)."""
    from repro.workloads.generator import build_workload
    from repro.workloads.micro import MICROS, build_micro
    from repro.workloads.suite import benchmark_names, get_spec

    short = name[len("micro."):] if name.startswith("micro.") else name
    if short in MICROS:
        return build_micro(short)
    try:
        spec = get_spec(name)
    except KeyError:
        known = [f"micro.{m}" for m in MICROS] + benchmark_names()
        raise KeyError(
            f"unknown region {name!r}; known: {', '.join(known)}"
        ) from None
    return build_workload(spec, path_index=0)


def traced_run(
    workload,
    system: str,
    invocations: Optional[int] = None,
) -> TracedRun:
    """Compile, place, and simulate *workload* under *system*, traced.

    An enabled tracer gets the reference engine
    (:func:`repro.sim.factory.make_engine`).
    """
    from repro.experiments import common
    from repro.runtime.cache import get_cache

    if invocations is None:
        invocations = common.DEFAULT_INVOCATIONS
    tracer = Tracer()
    cache = get_cache()
    envs, wfp, envs_fp = common._prepare(workload, system, invocations)
    sim, correct, mdes, placement = common._simulate(
        workload, wfp, system, envs, envs_fp, cache, warm=True, tracer=tracer
    )
    return TracedRun(
        sim=sim,
        tracer=tracer,
        graph=workload.graph,
        mdes=mdes,
        placement=placement,
        correct=correct,
    )
