"""Kill a sweep mid-flight, rerun it, and demand byte-identical output.

The chaos harness's ``abort@N`` point SIGKILLs the *supervisor* right
before dispatching task N — the honest version of a user hitting Ctrl-\\
or the OOM killer taking the parent.  Resuming is rerunning the same
command: every task that finished was already stored in the result
cache by the worker that ran it, so the rerun replays those and ends
byte-identical to a never-interrupted run.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Lines like ``[tiny: 0.1s]`` / ``[cache: 9/12 hits this run (75%)]``
#: carry wall times and hit counts; everything else must match exactly.
_STATUS_LINE = re.compile(r"^\[.*\]$")

TASKS = 6

CHILD_SCRIPT = """\
import sys

from repro.experiments import cli
from repro.experiments.common import sim_cached
from repro.runtime.sweep import sweep_comparisons
from repro.workloads.micro import build_micro


def run(invocations=4):
    workloads = [build_micro(n) for n in ("stream_triad", "gather", "rmw")]
    systems = ("opt-lsq", "nachos")
    # A task whose sim record is already on disk is served from the cache.
    served = sum(
        sim_cached(w, s, invocations) for w in workloads for s in systems
    )
    result = sweep_comparisons(
        workloads, systems=systems, invocations=invocations, jobs=2,
    )
    print(f"[served from cache: {served} tasks]")
    return result


def render(result):
    import hashlib, pickle
    lines = []
    for comp in result:
        for system in sorted(comp.runs):
            r = comp.runs[system]
            digest = hashlib.sha256(pickle.dumps(r.sim)).hexdigest()[:16]
            lines.append(
                f"{comp.workload.name}/{system}: cycles={r.sim.cycles} "
                f"energy={r.sim.total_energy:.1f} sha={digest}"
            )
    return "\\n".join(lines)


cli.EXPERIMENTS["tiny"] = (run, render, True)
sys.exit(cli.main(["tiny", "--invocations", "4"]))
"""


def _strip_status(output: str) -> str:
    return "\n".join(
        line for line in output.splitlines() if not _STATUS_LINE.match(line)
    )


def _served(output: str) -> int:
    return int(re.search(r"^\[served from cache: (\d+) tasks\]$", output,
                         re.MULTILINE).group(1))


def _cache_hits(output: str) -> int:
    return int(re.search(r"^\[cache: (\d+)/\d+ hits this run", output,
                         re.MULTILINE).group(1))


def _run_child(script: Path, cache_dir: Path, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["NACHOS_CACHE_DIR"] = str(cache_dir)
    env["PYTHONHASHSEED"] = "0"
    for name in ("NACHOS_CACHE", "NACHOS_CHAOS"):
        env.pop(name, None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )


def _interrupt(script: Path, cache_dir: Path):
    """A run SIGKILLed at the dispatch of task 4."""
    interrupted = _run_child(
        script, cache_dir, env_extra={"NACHOS_CHAOS": "abort@4"}
    )
    assert interrupted.returncode in (-9, 137), (
        f"expected SIGKILL death, got rc={interrupted.returncode}\n"
        f"{interrupted.stdout}{interrupted.stderr}"
    )
    assert list(cache_dir.rglob("*.pkl")), "finished tasks left no entries"
    # A worker that finishes after the kill finds the pipe broken and
    # exits quietly: its result is already cached.
    assert "Traceback" not in interrupted.stderr, interrupted.stderr


def test_killed_sweep_resumes_byte_identical(tmp_path):
    script = tmp_path / "child.py"
    script.write_text(CHILD_SCRIPT)

    control = _run_child(script, tmp_path / "cache-control")
    assert control.returncode == 0, control.stderr
    assert _served(control.stdout) == 0

    _interrupt(script, tmp_path / "cache")
    resumed = _run_child(script, tmp_path / "cache")
    assert resumed.returncode == 0, resumed.stderr
    assert _strip_status(resumed.stdout) == _strip_status(control.stdout)
    assert _strip_status(resumed.stdout)  # non-empty after stripping
    # The tasks that finished before the kill replay from the cache;
    # the rest are computed.
    assert 0 < _served(resumed.stdout) < TASKS
    assert _cache_hits(resumed.stdout) > 0
