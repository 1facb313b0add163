"""Deterministic fault injection for the supervised sweep runtime.

Every recovery path in :mod:`repro.runtime.executor` is exercised by
*injected* faults rather than hoped-for ones — the same philosophy as
``tests/test_failure_injection.py``, where broken backends prove the
correctness oracle has teeth.  A :class:`ChaosSpec` decides, purely from
``(seed, task index, attempt)``, whether a given attempt should

* ``crash``   — the worker process exits hard (``os._exit``), as a
  segfault or OOM kill would;
* ``hang``    — the worker sleeps ``hang_seconds`` before working, so a
  per-task timeout must fire to recover;
* ``corrupt`` — the worker computes the result but ships garbage bytes
  that fail to unpickle on the supervisor's side;
* ``abort``   — the *supervisor* SIGKILLs itself just before
  dispatching the marked task (simulates killing a sweep mid-flight;
  the kill-and-rerun tests are built on it).

Decisions are sha256-seeded (:func:`repro.runtime.retry.stable_unit`),
so a chaos campaign is bit-reproducible across processes and immune to
worker scheduling: task 7's attempt 0 crashes (or doesn't) no matter
which worker draws it or when.

The spec travels through the ``NACHOS_CHAOS`` environment variable so
forked/spawned pool workers inherit it.  Grammar (comma-separated)::

    crash=0.05,hang=0.02,corrupt=0.01,seed=42,hang_s=30,crash@3,corrupt@5:1

``kind=p`` sets a per-attempt probability; ``kind@index`` injects at a
task index (attempt 0); ``kind@index:attempt`` pins the attempt too.
``abort@index`` ignores the attempt (it fires on first dispatch).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.runtime.retry import stable_unit

CRASH = "crash"
HANG = "hang"
CORRUPT = "corrupt"
ABORT = "abort"

_KINDS = (CRASH, HANG, CORRUPT, ABORT)


class ChaosCrash(RuntimeError):
    """Serial-mode stand-in for a worker process dying."""


class ChaosCorrupt(RuntimeError):
    """Serial-mode stand-in for a corrupt result pickle."""


@dataclass(frozen=True)
class ChaosSpec:
    """A parsed, immutable chaos profile."""

    p_crash: float = 0.0
    p_hang: float = 0.0
    p_corrupt: float = 0.0
    seed: int = 0
    hang_seconds: float = 30.0
    #: explicit (kind, task index, attempt) injection points
    points: Tuple[Tuple[str, int, int], ...] = field(default_factory=tuple)

    @property
    def active(self) -> bool:
        return bool(
            self.p_crash or self.p_hang or self.p_corrupt or self.points
        )

    def decide(self, index: int, attempt: int) -> Optional[str]:
        """The fault (if any) for this attempt — explicit points first,
        then independent seeded draws in crash > hang > corrupt order."""
        for kind, i, a in self.points:
            if kind != ABORT and i == index and a == attempt:
                return kind
        for kind, p in (
            (CRASH, self.p_crash),
            (HANG, self.p_hang),
            (CORRUPT, self.p_corrupt),
        ):
            if p > 0.0 and stable_unit(self.seed, "chaos", kind, index, attempt) < p:
                return kind
        return None

    def decide_abort(self, index: int) -> bool:
        return any(kind == ABORT and i == index for kind, i, _ in self.points)


def parse_chaos(spec: str) -> ChaosSpec:
    """Parse the ``NACHOS_CHAOS`` grammar into a :class:`ChaosSpec`."""
    probs = {CRASH: 0.0, HANG: 0.0, CORRUPT: 0.0}
    seed = 0
    hang_seconds = 30.0
    points = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "@" in token:
            kind, _, where = token.partition("@")
            kind = kind.strip()
            if kind not in _KINDS:
                raise ValueError(f"unknown chaos kind {kind!r} in {token!r}")
            idx_s, _, att_s = where.partition(":")
            points.append((kind, int(idx_s), int(att_s) if att_s else 0))
        elif "=" in token:
            key, _, value = token.partition("=")
            key = key.strip()
            if key in probs:
                probs[key] = float(value)
            elif key == "seed":
                seed = int(value)
            elif key == "hang_s":
                hang_seconds = float(value)
            else:
                raise ValueError(f"unknown chaos knob {key!r} in {token!r}")
        else:
            raise ValueError(f"unparseable chaos token {token!r}")
    return ChaosSpec(
        p_crash=probs[CRASH],
        p_hang=probs[HANG],
        p_corrupt=probs[CORRUPT],
        seed=seed,
        hang_seconds=hang_seconds,
        points=tuple(points),
    )


# ----------------------------------------------------------------------
# Process-wide spec (environment-backed, override for in-process tests)
# ----------------------------------------------------------------------
_override: Optional[ChaosSpec] = None
_parsed: Optional[Tuple[str, ChaosSpec]] = None  # (env string, spec) memo


def set_chaos(spec: Optional[ChaosSpec]) -> None:
    """Install an in-process override (``None`` restores env lookup).

    Pool *workers* read ``NACHOS_CHAOS`` from their inherited
    environment; an override set only in the parent does not cross the
    process boundary — tests that exercise the pool set the env var.
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
