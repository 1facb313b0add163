"""Wire protocol for ``nachos-serve``: requests, fingerprints, payloads.

A serve request names *what* to simulate — a workload/region spec, the
systems to run it under and the invocation count — never *how*: the
run picks its own engine (:func:`repro.sim.factory.make_engine`).  Everything about the request is content-addressed
with the same fingerprints as the result cache
(:mod:`repro.runtime.fingerprint` via
:func:`repro.experiments.common.task_fingerprint`):

* every (region, system) pair maps to one **task fingerprint** — the
  daemon's in-flight dedup key, so two concurrent requests that share a
  task squash into one computation;
* the whole request maps to one **request id** — the sorted combine of
  its task fingerprints, so ``systems=["nachos","opt-lsq"]`` and
  ``systems=["opt-lsq","nachos"]`` are the same request.

Request JSON (``POST /submit``)::

    {"region": "bzip2" | "micro.gather" | "gather",
     "systems": ["nachos", "opt-lsq"],          # default: the 3 paper systems
     "invocations": 40,                          # default DEFAULT_INVOCATIONS
     "warm": true,
     "wait": false,                              # long-poll until done
     "wait_timeout": 300}                        # seconds; daemon caps it

Responses are JSON; see :mod:`repro.serve.daemon` for the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Bump when the request/response JSON layout changes incompatibly.
SERVE_SCHEMA = 3

#: Hard cap on invocations per request — a service knob, not a physics
#: one: a single huge request would head-of-line-block the shared pool.
MAX_INVOCATIONS = 2000

class ProtocolError(ValueError):
    """A malformed or unsatisfiable request (HTTP 400)."""


#: Daemon-lifetime workload memo: building a region graph is the
#: expensive part of request validation, and the daemon exists exactly
#: to amortize it.  Workloads are immutable downstream (``run_system``
#: never mutates ``workload.graph``), so sharing is safe.
_workload_memo: Dict[str, Any] = {}


def workload_for(region: str):
    """The (memoized) workload for a region/micro name.

    Raises :class:`ProtocolError` for unknown names, listing what the
    daemon does know.
    """
    workload = _workload_memo.get(region)
    if workload is None:
        from repro.obs.runner import resolve_workload

        try:
            workload = resolve_workload(region)
        except KeyError as exc:
            raise ProtocolError(str(exc.args[0])) from None
        _workload_memo[region] = workload
    return workload


def known_systems() -> Tuple[str, ...]:
    from repro.experiments.common import _KNOWN_SYSTEMS

    return tuple(sorted(_KNOWN_SYSTEMS))


@dataclass(frozen=True)
class ServeRequest:
    """A validated, fingerprinted submit request."""

    region: str
    systems: Tuple[str, ...]
    invocations: int
    warm: bool
    request_id: str
    task_fps: Tuple[str, ...]      # aligned with ``systems``
    wait: bool = False             # long-poll until done
    wait_timeout: float = math.inf  # the daemon caps it


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def parse_request(payload: Any) -> ServeRequest:
    """Validate a submit body and compute its content fingerprints."""
    from repro.experiments.common import DEFAULT_INVOCATIONS, task_fingerprint
    from repro.runtime.fingerprint import combine

    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - {
        "region", "systems", "invocations", "warm", "wait", "wait_timeout",
    }
    _require(not unknown, f"unknown request field(s): {', '.join(sorted(unknown))}")

    region = payload.get("region")
    _require(isinstance(region, str) and region, "'region' (string) is required")

    systems = payload.get("systems")
    if systems is None:
        from repro.experiments.common import SYSTEMS

        systems = list(SYSTEMS)
    _require(
        isinstance(systems, (list, tuple)) and systems
        and all(isinstance(s, str) for s in systems),
        "'systems' must be a non-empty list of system names",
    )
    bad = [s for s in systems if s not in known_systems()]
    _require(
        not bad,
        f"unknown system(s) {', '.join(sorted(bad))}; "
        f"known: {', '.join(known_systems())}",
    )
    # Dedup while keeping first-seen order (the response is keyed by
    # system name, so duplicates add nothing).
    systems = tuple(dict.fromkeys(systems))

    invocations = payload.get("invocations", DEFAULT_INVOCATIONS)
    _require(
        isinstance(invocations, int) and not isinstance(invocations, bool)
        and 1 <= invocations <= MAX_INVOCATIONS,
        f"'invocations' must be an integer in [1, {MAX_INVOCATIONS}]",
    )

    warm = payload.get("warm", True)
    _require(isinstance(warm, bool), "'warm' must be a boolean")
    wait = payload.get("wait", False)
    _require(isinstance(wait, bool), "'wait' must be a boolean")
    wait_timeout = payload.get("wait_timeout", math.inf)
    if "wait_timeout" in payload:
        _require(
            isinstance(wait_timeout, (int, float))
            and not isinstance(wait_timeout, bool)
            and math.isfinite(wait_timeout) and wait_timeout >= 0,
            "'wait_timeout' must be a finite, non-negative number of seconds",
        )

    workload = workload_for(region)
    task_fps = tuple(
        task_fingerprint(workload, system, invocations, warm) for system in systems
    )
    request_id = combine("serve-request", *sorted(task_fps))
    return ServeRequest(
        region=region,
        systems=systems,
        invocations=invocations,
        warm=warm,
        request_id=request_id,
        task_fps=task_fps,
        wait=wait,
        wait_timeout=float(wait_timeout),
    )


def run_payload(run) -> Dict[str, Any]:
    """JSON-safe summary of one :class:`~repro.experiments.common.SystemRun`."""
    sim = run.sim
    return {
        "cycles": int(sim.cycles),
        "invocations": int(sim.invocations),
        "energy": float(sim.total_energy),
        "correct": bool(run.correct),
        "n_mdes": int(run.n_mdes),
        "l1_hits": int(sim.l1_hits),
        "l1_misses": int(sim.l1_misses),
    }
