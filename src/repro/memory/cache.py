"""A set-associative cache with LRU replacement and write-back lines."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.config import CacheConfig


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.read_hits = self.read_misses = 0
        self.write_hits = self.write_misses = 0
        self.evictions = self.writebacks = 0


class SetAssociativeCache:
    """LRU set-associative cache over line addresses.

    Tracks presence and dirtiness only — the simulator keeps data values
    elsewhere; a timing/energy model needs no line contents.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._line_bytes = config.line_bytes
        self._n_sets = config.n_sets
        self._ways = config.ways
        # set index -> OrderedDict[tag -> dirty]; LRU at the front.  A set
        # exists only once a line was installed in it.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}

    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self._line_bytes

    def _locate(self, line: int) -> Optional["OrderedDict[int, bool]"]:
        """The set *line* maps to, or None if nothing was ever put there."""
        return self._sets.get(line % self._n_sets)

    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> bool:
        """Presence check with no state change (used by MSHR logic)."""
        line = addr // self._line_bytes
        ways = self._locate(line)
        return ways is not None and line in ways

    def access(self, addr: int, is_write: bool) -> bool:
        """Access a byte address; returns True on hit.  Misses allocate."""
        line = addr // self._line_bytes
        ways = self._sets.get(line % self._n_sets)
        if ways is not None and line in ways:
            ways.move_to_end(line)
            if is_write:
                ways[line] = True
                self.stats.write_hits += 1
            else:
                self.stats.read_hits += 1
            return True

        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        self.fill(line, dirty=is_write)
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[int]:
        """Install *line*; returns the evicted line (if any)."""
        idx = line % self._n_sets
        ways = self._sets.get(idx)
        if ways is None:
            ways = self._sets[idx] = OrderedDict()
        victim = None
        if line in ways:
            ways.move_to_end(line)
            ways[line] = ways[line] or dirty
            return None
        if len(ways) >= self._ways:
            victim, was_dirty = ways.popitem(last=False)
            self.stats.evictions += 1
            if was_dirty:
                self.stats.writebacks += 1
        ways[line] = dirty
        return victim

    def invalidate(self, line: int) -> None:
        ways = self._locate(line)
        if ways is not None:
            ways.pop(line, None)

    def flush(self) -> None:
        self._sets.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets.values())
