"""Cache keys hash the simulator's sources: edit one, every key moves.

Each case copies ``src/`` to a temp tree, edits one file, and runs a
small sweep in a subprocess whose ``PYTHONPATH`` points at the copy,
against a copy of a cache the unchanged tree filled.  The subprocess
reports every key it looked up or stored, in order, and its hit/miss
counts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One compile, one oracle and two sim records: ``nachos`` compiles the
#: full pipeline, ``oracle-sw`` derives its edges from the trace.
SCRIPT = """\
import json

from repro.runtime.cache import ResultCache, get_cache
from repro.runtime.executor import SimTask, run_tasks
from repro.workloads.micro import build_micro

log = []
get, put = ResultCache.get, ResultCache.put
ResultCache.get = lambda self, key: log.append(("get", key)) or get(self, key)
ResultCache.put = lambda self, key, value: (
    log.append(("put", key)) or put(self, key, value)
)
workload = build_micro("gather")
run_tasks([SimTask(workload, s, 4) for s in ("nachos", "oracle-sw")], jobs=1)
cache = get_cache()
print(json.dumps({"log": log, "hits": cache.hits, "misses": cache.misses}))
"""


def _run(src: Path, cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["NACHOS_CACHE_DIR"] = str(cache_dir)
    for name in ("NACHOS_CACHE", "NACHOS_CHAOS", "NACHOS_JOBS"):
        env.pop(name, None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _copy_src(dest: Path) -> Path:
    shutil.copytree(
        REPO_ROOT / "src", dest,
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    return dest


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """An unchanged tree and the cache its cold run filled."""
    root = tmp_path_factory.mktemp("baseline")
    src = _copy_src(root / "src")
    cold = _run(src, root / "cache")
    puts = [key for op, key in cold["log"] if op == "put"]
    assert len(puts) == 4, cold["log"]
    assert cold["hits"] == 0
    return src, root / "cache", puts


@pytest.mark.parametrize(
    "edit",
    [None, "obs/metrics.py", "serve/daemon.py"],
    ids=["unchanged", "obs", "serve"],
)
def test_tree_outside_the_keyed_set_reruns_warm(baseline, tmp_path, edit):
    """A warm sweep reads 100% hits: on the same tree, and after an edit
    to code that decides no cached result."""
    src, cache, puts = baseline
    if edit is not None:
        src = _copy_src(tmp_path / "src")
        with open(src / "repro" / edit, "ab") as fh:
            fh.write(b"#")
    shutil.copytree(cache, tmp_path / "cache")
    warm = _run(src, tmp_path / "cache")
    assert warm["misses"] == 0
    assert warm["hits"] == len(warm["log"]) > 0
    assert all(op == "get" and key in puts for op, key in warm["log"])


def test_backend_source_edit_changes_every_key(baseline, tmp_path):
    src, cache, puts = baseline
    edited = _copy_src(tmp_path / "src")
    with open(edited / "repro" / "sim" / "backends" / "base.py", "ab") as fh:
        fh.write(b"#")
    shutil.copytree(cache, tmp_path / "cache")
    cold = _run(edited, tmp_path / "cache")
    assert cold["hits"] == 0
    new_puts = [key for op, key in cold["log"] if op == "put"]
    # compile, nachos sim, oracle, oracle-sw sim: each one moved.
    assert len(new_puts) == len(puts) == 4
    assert not set(new_puts) & set(puts)
