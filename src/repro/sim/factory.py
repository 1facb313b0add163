"""Engine choice and construction: the run picks its engine.

``reference`` is the per-event heapq engine (:class:`DataflowEngine`);
``fast`` is the template-replaying engine (:class:`FastEngine`), proven
bit-exact by ``tests/test_engine_equivalence.py``.  Every simulation
entry point (``run_system``, ``traced_run``) builds its engine through
:func:`make_engine`, and no option names one: the engine is the fastest
that can serve the run.  That is ``fast``, except for two kinds of run
the reference engine alone can serve:

* an **enabled tracer** — the one-event-per-counter trace contract is
  defined against the reference event loop;
* ``model_link_contention=True`` — mesh-link reservations persist
  across invocations, so static timing is not invocation-invariant and
  the schedule template would be wrong.

Both engines produce byte-identical results, so the sim cache key needs
no engine term: ``model_link_contention`` is part of the engine
config's fingerprint, and traced runs never write the cache.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.config import EngineConfig
from repro.sim.engine import DataflowEngine
from repro.sim.fast import FastEngine


def resolve_engine_mode(config: Optional[EngineConfig] = None, tracer=None) -> str:
    """The engine a run with this config and tracer gets: ``"fast"``, or
    ``"reference"`` for an enabled tracer or link contention."""
    if tracer is not None and tracer.enabled:
        return "reference"
    if config is not None and config.model_link_contention:
        return "reference"
    return "fast"


def make_engine(
    graph,
    placement,
    hierarchy,
    backend,
    energy=None,
    config: Optional[EngineConfig] = None,
    recorder=None,
    tracer=None,
    mdes=None,
) -> DataflowEngine:
    """Build the engine :func:`resolve_engine_mode` picks for this run.

    ``mdes`` is the edge set the backend enforces (``None``: the graph's
    own MDEs).
    """
    reference = resolve_engine_mode(config, tracer) == "reference"
    cls = DataflowEngine if reference else FastEngine
    return cls(
        graph,
        placement,
        hierarchy,
        backend,
        energy=energy,
        config=config,
        recorder=recorder,
        tracer=tracer,
        mdes=mdes,
    )
