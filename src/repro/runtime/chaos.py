"""Deterministic fault injection for the supervised sweep runtime.

The two recovery paths of :mod:`repro.runtime.executor` are exercised by
*injected* faults rather than hoped-for ones — the same philosophy as
``tests/test_failure_injection.py``, where broken backends prove the
correctness oracle has teeth.  A :class:`ChaosSpec` names explicit
injection points:

* ``crash@I[:A]`` — the pool worker that picks up task ``I`` on attempt
  ``A`` (default 0) exits hard (``os._exit``), as a segfault or OOM
  kill would.  A dead worker's task is requeued once, so ``A`` is 0 or
  1, and ``crash@I,crash@I:1`` makes task ``I`` a terminal failure.  A
  serial run has no worker to lose, so it ignores these points;
* ``abort@I`` — the *supervisor* SIGKILLs itself just before first
  dispatching task ``I`` (simulates killing a sweep mid-flight; the
  kill-and-rerun tests are built on it).

Task indices are positions in one ``run_tasks`` batch, so a point fires
the same way no matter which worker draws the task or when.

The spec travels through the ``NACHOS_CHAOS`` environment variable so
forked/spawned pool workers inherit it.  Grammar (comma-separated)::

    crash@3,crash@5:1,abort@7
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

CRASH = "crash"
ABORT = "abort"

#: Attempts a task can get: the first, and one requeue after a death.
_ATTEMPTS = (0, 1)


@dataclass(frozen=True)
class ChaosSpec:
    """A parsed, immutable chaos profile."""

    #: (task index, attempt) pairs whose pool worker dies at pickup
    crashes: FrozenSet[Tuple[int, int]] = frozenset()
    #: task indices at whose first dispatch the supervisor is SIGKILLed
    aborts: FrozenSet[int] = frozenset()

    @property
    def active(self) -> bool:
        return bool(self.crashes or self.aborts)

    def crashes_at(self, index: int, attempt: int) -> bool:
        return (index, attempt) in self.crashes

    def aborts_at(self, index: int) -> bool:
        return index in self.aborts


def parse_chaos(spec: str) -> ChaosSpec:
    """Parse the ``NACHOS_CHAOS`` grammar into a :class:`ChaosSpec`."""
    crashes = set()
    aborts = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        kind, at, where = token.partition("@")
        kind = kind.strip()
        if not at:
            raise ValueError(f"unparseable chaos token {token!r}")
        idx_s, colon, att_s = where.partition(":")
        if kind == CRASH:
            attempt = int(att_s) if colon else 0
            if attempt not in _ATTEMPTS:
                raise ValueError(
                    f"chaos attempt must be 0 or 1 (one requeue) in {token!r}"
                )
            crashes.add((int(idx_s), attempt))
        elif kind == ABORT and not colon:
            aborts.add(int(idx_s))
        else:
            raise ValueError(f"unknown chaos point {token!r}")
    return ChaosSpec(crashes=frozenset(crashes), aborts=frozenset(aborts))


# ----------------------------------------------------------------------
# Process-wide spec (environment-backed, override for in-process tests)
# ----------------------------------------------------------------------
_override: Optional[ChaosSpec] = None
_parsed: Optional[Tuple[str, ChaosSpec]] = None  # (env string, spec) memo


def set_chaos(spec: Optional[ChaosSpec]) -> None:
    """Install an in-process override (``None`` restores env lookup).

    Pool workers forked after this call inherit the override; spawned
    workers (platforms without fork) only read ``NACHOS_CHAOS`` from
    their environment, so tests that exercise the pool set the env var.
    """
    global _override
    _override = spec


def get_chaos() -> Optional[ChaosSpec]:
    """The active chaos spec, or ``None`` when chaos is off."""
    global _parsed
    if _override is not None:
        return _override if _override.active else None
    raw = os.environ.get("NACHOS_CHAOS", "")
    if not raw:
        return None
    if _parsed is None or _parsed[0] != raw:
        _parsed = (raw, parse_chaos(raw))
    spec = _parsed[1]
    return spec if spec.active else None
