"""Durability-layer regression tests: tmp-file leaks in the result cache.

The crash harness here is real: a forked child is SIGKILLed *inside*
``pickle.dump`` while holding an in-flight ``*.tmp`` file, repeatedly,
and the sweep must reclaim every orphan while sparing live writers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.cache import (
    ResultCache,
    TMP_MAX_AGE_SECONDS,
    _tmp_prefix,
    sweep_stale_tmp,
)


class _BlocksInsidePickle:
    """Pickling this object signals a flag file, then hangs.

    ``ResultCache.put`` has already created its ``*.tmp`` by the time
    ``pickle.dump`` runs ``__reduce__``, so a SIGKILL delivered after
    the flag appears lands exactly in the crash window the sweep exists
    for: tmp on disk, writer about to die, no cleanup path runs.
    """

    def __init__(self, flag_path: str) -> None:
        self.flag_path = flag_path

    def __reduce__(self):
        Path(self.flag_path).touch()
        time.sleep(60)
        return (dict, ())  # never reached


def _kill_victim_cache(root: str, flag: str) -> None:
    cache = ResultCache(root=Path(root), enabled=True)
    cache.put("aa" + "0" * 62, _BlocksInsidePickle(flag))


def _run_and_kill(target, root: Path, tmp_path: Path, tag: str) -> None:
    ctx = multiprocessing.get_context("fork")
    flag = tmp_path / f"flag-{tag}"
    proc = ctx.Process(target=target, args=(str(root), str(flag)))
    proc.start()
    deadline = time.monotonic() + 30
    while not flag.exists():
        assert time.monotonic() < deadline, "victim never reached pickle"
        assert proc.is_alive(), "victim died before reaching pickle"
        time.sleep(0.005)
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=30)


@pytest.mark.parametrize("target,store", [(_kill_victim_cache, "cache")])
def test_sigkill_mid_put_never_accumulates_tmp(tmp_path, target, store):
    """Repeated kills mid-put leave orphans; the sweep reclaims ALL of
    them (writer pid is dead), and repeated faulted runs never let the
    population grow."""
    root = tmp_path / store
    for round_no in range(3):
        _run_and_kill(target, root, tmp_path, f"{store}-{round_no}")
    orphans = list(root.rglob("*.tmp"))
    assert len(orphans) == 3, "each killed put should leave its tmp"
    removed = sweep_stale_tmp(root)
    assert removed == 3
    assert list(root.rglob("*.tmp")) == []
    # A fourth faulted run after the sweep: still exactly one orphan,
    # and the instance-level sweep entry points reclaim it too.
    _run_and_kill(target, root, tmp_path, f"{store}-again")
    assert ResultCache(root=root, enabled=True).sweep_stale() == 1
    assert list(root.rglob("*.tmp")) == []


def test_stats_sweeps_and_reports_stale_tmp(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=True)
    cache.put("cc" + "2" * 62, {"x": 1})
    _run_and_kill(_kill_victim_cache, tmp_path, tmp_path, "stats")
    stats = cache.stats()
    assert stats["stale_tmp_removed"] == 1
    assert stats["tmp_in_flight"] == 0
    assert stats["entries"] == 1
    assert list(tmp_path.rglob("*.tmp")) == []


def test_sweep_spares_live_writers(tmp_path):
    """A tmp whose encoded pid is alive (ours) must survive the sweep;
    one with a dead writer pid must not."""
    objects = tmp_path / "objects" / "aa"
    objects.mkdir(parents=True)
    live = objects / f"{_tmp_prefix()}live.tmp"
    live.write_bytes(b"in flight")
    # A real, definitely-dead writer pid: a child that already exited
    # (reaped, so the pid is free until the kernel recycles it).
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    dead = objects / f".put-{proc.pid}-x.tmp"
    dead.write_bytes(b"orphan")
    assert sweep_stale_tmp(tmp_path) == 1
    assert live.exists()
    assert not dead.exists()


def test_old_unparsable_tmp_swept_by_age(tmp_path):
    """Legacy tmp names (no pid) fall back to the age policy."""
    objects = tmp_path / "objects" / "ab"
    objects.mkdir(parents=True)
    legacy = objects / "tmpq1w2e3.tmp"
    legacy.write_bytes(b"old")
    ancient = time.time() - (TMP_MAX_AGE_SECONDS + 60)
    os.utime(legacy, (ancient, ancient))
    fresh = objects / "tmpr4t5y6.tmp"
    fresh.write_bytes(b"new")
    assert sweep_stale_tmp(tmp_path) == 1
    assert not legacy.exists()
    assert fresh.exists()


def test_clear_removes_crash_debris(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=True)
    cache.put("dd" + "3" * 62, [1, 2, 3])
    _run_and_kill(_kill_victim_cache, tmp_path, tmp_path, "clear")
    assert cache.clear() == 2  # one entry + one orphan tmp
    assert list(tmp_path.rglob("*.tmp")) == []
    assert list(tmp_path.rglob("*.pkl")) == []


# ----------------------------------------------------------------------
# Unpicklable values: demote to not-cached, never leak, never raise
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value",
    [
        lambda: None,                       # functions defined locally
        (i for i in range(3)),              # generators
        {"nested": {"fh": open(os.devnull)}},  # file handles (TypeError)
    ],
    ids=["lambda", "generator", "file-handle"],
)
def test_cache_put_unpicklable_is_silent_and_leakless(tmp_path, value):
    cache = ResultCache(root=tmp_path, enabled=True)
    key = "ee" + "4" * 62
    cache.put(key, value)  # must not raise
    assert cache.get(key) is ResultCache.MISS
    assert list(tmp_path.rglob("*.tmp")) == []
