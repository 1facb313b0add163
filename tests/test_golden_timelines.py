"""Golden timeline corpus for the litmus patterns.

Serializes the :class:`TimelineRecorder` output (per-op start/complete
times for every invocation, every backend) of each litmus pattern and
pins it against committed JSON under ``tests/golden/``.  Two things are
on the hook:

* **semantic drift** — an engine or backend change that moves *when*
  ops execute shows up as a golden diff, even if final values stay
  correct;
* **fast-engine timeline fidelity** — the fast engine prefills static
  op timings from its schedule template instead of recording live
  events, and must serialize identically to the reference recorder.

Regenerate intentionally with ``pytest --update-golden`` (then review
the diff like any other behavior change).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.test_litmus import BACKENDS, LITMUS, NEEDS_MDES

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.memory import MemoryHierarchy
from repro.sim import DataflowEngine, FastEngine, TimelineRecorder

GOLDEN_DIR = Path(__file__).parent / "golden"
INVOCATION_REPEATS = 2  # template captured on inv 0, replayed on inv 1


def _record_timelines(name: str, engine_cls) -> dict:
    """One pattern's serialized timelines for every backend."""
    build_fn, envs = LITMUS[name]
    envs = envs * INVOCATION_REPEATS
    per_backend = {}
    for backend_name in sorted(BACKENDS):
        graph = build_fn()
        if backend_name in NEEDS_MDES:
            compile_region(graph)
        else:
            graph.clear_mdes()
        recorder = TimelineRecorder()
        engine = engine_cls(
            graph,
            place_region(graph),
            MemoryHierarchy(),
            BACKENDS[backend_name](),
            recorder=recorder,
        )
        engine.run(envs)
        per_backend[backend_name] = [
            {
                "index": tl.index,
                "start": tl.start,
                "end": tl.end,
                "timings": [
                    [t.op_id, t.opcode, t.name, t.start, t.complete]
                    for t in tl.timings
                ],
            }
            for tl in recorder.invocations
        ]
    return {"pattern": name, "invocations": per_backend}


@pytest.mark.parametrize("litmus", sorted(LITMUS))
def test_golden_timeline(litmus, update_golden):
    current = _record_timelines(litmus, DataflowEngine)
    path = GOLDEN_DIR / f"{litmus}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path}; generate with pytest --update-golden"
    )
    golden = json.loads(path.read_text())
    assert current == golden, (
        f"{litmus}: timelines drifted from golden corpus — if intended, "
        "regenerate with pytest --update-golden and review the diff"
    )


@pytest.mark.parametrize("litmus", sorted(LITMUS))
def test_fast_engine_matches_golden(litmus, update_golden):
    """The fast engine's template-prefilled recorder output must match
    the same golden corpus, not merely the live reference run."""
    if update_golden:
        pytest.skip("golden files being rewritten by the reference run")
    path = GOLDEN_DIR / f"{litmus}.json"
    assert path.exists(), (
        f"missing golden file {path}; generate with pytest --update-golden"
    )
    golden = json.loads(path.read_text())
    assert _record_timelines(litmus, FastEngine) == golden
