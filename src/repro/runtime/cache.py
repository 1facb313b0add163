"""Content-addressed on-disk result cache.

Entries are pickled Python objects stored under
``<root>/objects/<key[:2]>/<key>.pkl`` where ``key`` is a sha256 over
the content fingerprints of everything the result depends on (see
:mod:`repro.runtime.fingerprint`), the simulator's source code among
them.  Writes are atomic against process death (tmp + rename), so
concurrent workers can race on the same key safely — last writer wins
with identical bytes — and a killed sweep's completed tasks survive
for its rerun.  A put is not fsync'd: every entry can be recomputed
from its key, so after an OS crash or power loss recent entries may be
missing or torn, and a torn entry reads as a miss.

Hit/miss counters accumulate in memory and are merged into
``<root>/stats.json`` on process exit, which is what
``nachos-repro cache stats`` reports.

Environment knobs:

* ``NACHOS_CACHE_DIR`` — cache root (default ``~/.cache/nachos-repro``)
* ``NACHOS_CACHE=off``/``0`` — disable reads and writes entirely
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple

_MISS = object()

#: mkstemp prefix for in-flight writes.  The writer's pid is encoded in
#: the name so a stale-tmp sweep can tell an orphan (writer dead — e.g.
#: a worker SIGKILLed mid-put) from a concurrent writer's live file.
_TMP_PREFIX = ".put-"

#: Age past which a tmp file is swept even when its writer pid cannot
#: be checked (unparsable legacy name, or pid recycled to an unrelated
#: process).  No healthy put holds a tmp open for anywhere near this.
TMP_MAX_AGE_SECONDS = 3600.0


def _tmp_prefix() -> str:
    return f"{_TMP_PREFIX}{os.getpid()}-"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. EPERM: some process owns the pid
    return True


def _tmp_writer_pid(name: str) -> Optional[int]:
    """The writer pid encoded in a tmp filename, or ``None``."""
    if not name.startswith(_TMP_PREFIX):
        return None
    pid_part = name[len(_TMP_PREFIX):].partition("-")[0]
    try:
        return int(pid_part)
    except ValueError:
        return None


def sweep_stale_tmp(
    root: Path, max_age_seconds: float = TMP_MAX_AGE_SECONDS
) -> int:
    """Remove orphaned ``*.tmp`` files under *root*; return the count.

    A tmp file is an orphan when its writer process is gone (a crash or
    SIGKILL between ``mkstemp`` and the cleanup path) or when it is
    older than *max_age_seconds* (covers unparsable names and recycled
    pids).  Live writers — our own in-flight puts included — are left
    alone.  Best-effort on every syscall: a racing unlink is fine.
    """
    removed = 0
    root = Path(root)
    if not root.is_dir():
        return 0
    now = time.time()
    for path in root.rglob("*.tmp"):
        pid = _tmp_writer_pid(path.name)
        stale = pid is not None and not _pid_alive(pid)
        if not stale:
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            stale = age > max_age_seconds
        if stale:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
    return removed


#: Roots of the stores this process has swept through
#: :func:`sweep_stale_tmp_once`.
_swept_roots: Set[Path] = set()


def sweep_stale_tmp_once(root: Path) -> int:
    """:func:`sweep_stale_tmp` of *root*, the first time this process asks.

    Only a writer that died mid-put leaves an orphan, so one walk per
    process and root reclaims everything left before it; a caller that
    kills a writer calls :func:`forget_swept_roots` so the next call
    walks again.  Returns how many files were removed (0 when skipped).
    """
    root = Path(root)
    if root in _swept_roots:
        return 0
    _swept_roots.add(root)
    return sweep_stale_tmp(root)


def forget_swept_roots() -> None:
    """Make the next :func:`sweep_stale_tmp_once` of every root walk it."""
    _swept_roots.clear()


def default_cache_dir() -> Path:
    env = os.environ.get("NACHOS_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "nachos-repro"


def cache_enabled_by_env() -> bool:
    return os.environ.get("NACHOS_CACHE", "").lower() not in ("off", "0", "false")


class ResultCache:
    """Pickle-backed content-addressed store with hit/miss accounting."""

    def __init__(self, root: Optional[Path] = None, enabled: bool = True) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # Entry paths are built as strings on every get/contains/put:
        # three pathlib joins per call cost tens of times more.
        self._objects_dir = os.path.join(self.root, "objects")
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._stats_registered = False

    # -- paths ----------------------------------------------------------
    def _object_path(self, key: str) -> str:
        return f"{self._objects_dir}/{key[:2]}/{key}.pkl"

    @property
    def _stats_path(self) -> Path:
        return self.root / "stats.json"

    # -- object store ---------------------------------------------------
    def get(self, key: str) -> Any:
        """Return the stored value for *key*, or ``ResultCache.MISS``."""
        if not self.enabled:
            return _MISS
        path = self._object_path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, ValueError):
            # Truncated or garbage entries (crash mid-write, stale
            # schema) demote to a recomputable miss, never an error.
            self._count(hit=False)
            return _MISS
        self._count(hit=True)
        return value

    def put(self, key: str, value: Any) -> None:
        """Store *value* atomically against process death: tmp + rename,
        so a process killed mid-put leaves either the complete entry or
        none.  There is no fsync: an OS crash may lose or tear recent
        entries, and a torn entry reads as a miss in :meth:`get`.

        An unpicklable *value* (``PicklingError``, or ``TypeError`` for
        e.g. generators/locks) demotes to "not cached" — the cache is
        best-effort — and the tmp file is unlinked in a ``finally`` so
        no failure mode can leak it; only a kill between ``mkstemp``
        and that unlink can, which :func:`sweep_stale_tmp` reclaims.
        """
        if not self.enabled:
            return
        path = self._object_path(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=_tmp_prefix(), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            pass
        finally:
            try:
                os.unlink(tmp)  # already gone on the success path
            except OSError:
                pass

    MISS = _MISS

    def contains(self, key: str) -> bool:
        """Whether an entry for *key* is on disk (not read, not counted;
        a truncated entry still reads as a miss in :meth:`get`)."""
        return self.enabled and os.path.isfile(self._object_path(key))

    # -- accounting -----------------------------------------------------
    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
            if not self._stats_registered:
                self._stats_registered = True
                atexit.register(self.flush_stats)

    def add_counts(self, hits: int, misses: int) -> None:
        """Fold counters observed elsewhere (pool workers) into this cache."""
        if hits == 0 and misses == 0:
            return
        with self._lock:
            self.hits += hits
            self.misses += misses
            if not self._stats_registered:
                self._stats_registered = True
                atexit.register(self.flush_stats)

    def flush_stats(self) -> None:
        """Merge this process's counters into the persisted stats file."""
        with self._lock:
            hits, misses = self.hits, self.misses
            self.hits = 0
            self.misses = 0
        if not self.enabled or (hits == 0 and misses == 0):
            return
        tmp = None
        try:
            persisted = self._read_stats_file()
            persisted["hits"] += hits
            persisted["misses"] += misses
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.root), prefix=_tmp_prefix(), suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                json.dump(persisted, fh)
            os.replace(tmp, self._stats_path)
        except OSError:
            pass  # stats are best-effort; never fail a run over them
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _read_stats_file(self) -> Dict[str, int]:
        try:
            with open(self._stats_path) as fh:
                data = json.load(fh)
            return {"hits": int(data.get("hits", 0)), "misses": int(data.get("misses", 0))}
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0}

    def sweep_stale(
        self, max_age_seconds: float = TMP_MAX_AGE_SECONDS
    ) -> int:
        """Reclaim orphaned in-flight ``*.tmp`` files (see
        :func:`sweep_stale_tmp`); returns how many were removed."""
        return sweep_stale_tmp(self.root, max_age_seconds)

    def stats(self) -> Dict[str, Any]:
        """Entry count, on-disk bytes, and cumulative hit/miss counters.

        Also sweeps orphaned ``*.tmp`` files (writers killed mid-put)
        and reports how many were reclaimed / are still in flight.
        """
        swept = self.sweep_stale()
        entries = 0
        size = 0
        tmp_in_flight = 0
        objects = Path(self._objects_dir)
        if objects.is_dir():
            for path in objects.rglob("*"):
                name = path.name
                if name.endswith(".pkl"):
                    entries += 1
                    try:
                        size += path.stat().st_size
                    except OSError:
                        pass
                elif name.endswith(".tmp"):
                    tmp_in_flight += 1
        persisted = self._read_stats_file()
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": entries,
            "bytes": size,
            "stale_tmp_removed": swept,
            "tmp_in_flight": tmp_in_flight,
            "hits": persisted["hits"] + self.hits,
            "misses": persisted["misses"] + self.misses,
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    def clear(self) -> int:
        """Delete every cached object (and the counters); return count.

        Counts and removes leftover ``*.tmp`` files too — a cleared
        cache directory holds nothing, not even crash debris.
        """
        removed = 0
        objects = Path(self._objects_dir)
        if objects.is_dir():
            removed = sum(
                1
                for p in objects.rglob("*")
                if p.name.endswith((".pkl", ".tmp"))
            )
            shutil.rmtree(objects, ignore_errors=True)
        removed += sweep_stale_tmp(self.root, max_age_seconds=0.0)
        try:
            self._stats_path.unlink()
        except OSError:
            pass
        with self._lock:
            self.hits = 0
            self.misses = 0
        return removed


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------
_default: Optional[ResultCache] = None


def get_cache() -> ResultCache:
    """The process-wide cache (created lazily from the environment)."""
    global _default
    if _default is None:
        _default = ResultCache(enabled=cache_enabled_by_env())
    return _default


def configure_cache(
    root: Optional[Path] = None, enabled: Optional[bool] = None
) -> ResultCache:
    """Replace the process-wide cache (CLI/tests entry point)."""
    global _default
    current = get_cache()
    _default = ResultCache(
        root=root if root is not None else current.root,
        enabled=enabled if enabled is not None else current.enabled,
    )
    return _default
