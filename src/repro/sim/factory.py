"""Engine-mode resolution and construction.

One switch, three spellings, one precedence order::

    EngineConfig(mode=...)   >   $NACHOS_ENGINE   >   default rule

``reference`` is the per-event heapq engine (:class:`DataflowEngine`);
``fast`` is the template-replaying engine (:class:`FastEngine`), proven
bit-exact by ``tests/test_engine_equivalence.py``.  Every simulation
entry point (``run_system``, ``traced_run``, the fuzzer's cross-check)
builds engines through :func:`make_engine`, and the sweep cache key
includes the *resolved* mode — so a fast-mode result can never be
served where a reference-mode result was requested (which would make
the differential suite vacuous) and vice versa.

The fast engine cannot serve two kinds of run:

* an **enabled tracer** — the one-event-per-counter trace contract is
  defined against the reference event loop;
* ``model_link_contention=True`` — mesh-link reservations persist
  across invocations, so static timing is not invocation-invariant and
  the schedule template would be wrong.

**Default rule.**  When no mode is named, the engine is the fastest one
that can serve the run: ``fast``, or ``reference`` for those two kinds,
silently.  A ``fast`` mode that *was* named but cannot be honoured falls
back to the reference engine loudly (an :class:`EngineModeFallback`
warning, so ``-W error`` turns it fatal).
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro.sim.config import EngineConfig
from repro.sim.engine import DataflowEngine
from repro.sim.fast import FastEngine

ENGINE_MODES = ("reference", "fast")


class EngineModeFallback(UserWarning):
    """Fast mode was requested but unsupported for this run."""


def _check_mode(mode: str) -> str:
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {mode!r}; expected one of {ENGINE_MODES} "
            "(EngineConfig.mode or $NACHOS_ENGINE)"
        )
    return mode


def _named_mode(config: Optional[EngineConfig]) -> Optional[str]:
    """The mode the config or ``$NACHOS_ENGINE`` names, if any."""
    mode = (config.mode if config is not None else None) or os.environ.get(
        "NACHOS_ENGINE"
    )
    return _check_mode(mode) if mode else None


def resolve_engine_mode(config: Optional[EngineConfig] = None) -> str:
    """The engine mode this process would run: config, env, or default."""
    named = _named_mode(config)
    if named is not None:
        return named
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
    mode: Optional[str] = None,
    mdes=None,
) -> DataflowEngine:
    """Build the engine the resolved mode calls for (see the default rule).

    ``mode`` overrides resolution — callers that already folded the
    resolved mode into a cache key pass it back in so the key and the
    engine can never disagree.  ``mdes`` is the edge set the backend
    enforces (``None``: the graph's own MDEs).
    """
    named = _check_mode(mode) if mode is not None else _named_mode(config)
    reason = None
    if tracer is not None and tracer.enabled:
        reason = (
            "event tracing is enabled (the one-event-per-counter trace "
            "contract is defined against the reference event loop)"
        )
    elif config is not None and config.model_link_contention:
        reason = (
            "model_link_contention=True (mesh-link state persists "
            "across invocations, so schedule templates would be wrong)"
        )
    cls = DataflowEngine if named == "reference" or reason else FastEngine
    if named == "fast" and reason:
        warnings.warn(
            f"engine mode 'fast' ignored: {reason}; "
            "falling back to the reference engine",
            EngineModeFallback,
            stacklevel=2,
        )
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
