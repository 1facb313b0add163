"""Standalone JSON repros for shrunken fuzz failures.

A repro file is a complete, self-describing record of one failure: the
check that failed, the backend it ran under (``null`` for the
per-region checks), the injected stage-fault seed (if any), the findings
observed when it was captured, and the declarative
:class:`~repro.verify.fuzz.RegionSpec` (ops, environments, object size,
symbol bounds).  ``nachos-repro verify --repro FILE`` re-materializes
the region, sets it up as a campaign does, and reruns that check, so a
failure found on one machine replays exactly anywhere — the spec is
content, not pickled state.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import List

from repro.verify.fuzz import CHECKS, FuzzFailure, MemOpSpec, RegionSpec, recheck

FORMAT = "nachos-repro/fuzz-repro@2"


def failure_to_dict(failure: FuzzFailure) -> dict:
    return {
        "format": FORMAT,
        "check": failure.check,
        "system": failure.system,
        "fault_seed": failure.fault_seed,
        "findings": list(failure.findings),
        "spec": {
            "name": failure.spec.name,
            "size": failure.spec.size,
            "ops": [asdict(op) for op in failure.spec.ops],
            "envs": [
                {k: v for k, v in pairs} for pairs in failure.spec.envs
            ],
            "sym_bounds": {
                name: [lo, hi] for name, (lo, hi) in failure.spec.sym_bounds
            },
        },
    }


def save_failure(failure: FuzzFailure, path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(failure_to_dict(failure), indent=2) + "\n")
    return path


def load_repro(path: Path) -> FuzzFailure:
    """Read a repro file back into the :class:`FuzzFailure` it saved."""
    payload = json.loads(Path(path).read_text())
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != FORMAT:
        raise ValueError(
            f"{path}: repro format {fmt!r} is not {FORMAT!r}; "
            "capture the failure again with 'nachos-repro verify'"
        )
    if payload["check"] not in CHECKS:
        raise ValueError(f"{path}: unknown check {payload['check']!r}")
    raw = payload["spec"]
    spec = RegionSpec(
        name=raw["name"],
        size=raw["size"],
        ops=tuple(MemOpSpec(**op) for op in raw["ops"]),
        envs=tuple(
            tuple(sorted(env.items())) for env in raw["envs"]
        ),
        sym_bounds=tuple(
            sorted(
                (name, (lo, hi))
                for name, (lo, hi) in raw.get("sym_bounds", {}).items()
            )
        ),
    )
    return FuzzFailure(
        spec=spec,
        check=payload["check"],
        system=payload["system"],
        findings=tuple(payload["findings"]),
        fault_seed=payload["fault_seed"],
    )


def rerun(path: Path) -> List[str]:
    """Rerun a saved repro's check; its findings now.  An empty list
    means the repro no longer fails."""
    failure = load_repro(path)
    return recheck(failure, failure.spec)
