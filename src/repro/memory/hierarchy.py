"""Two-level hierarchy with MSHR merging and port arbitration.

``access(addr, is_write, cycle)`` returns when the access completes and
which level served it.  Concurrent misses to the same line merge into one
in-flight fill (MSHR behaviour); a bounded number of outstanding misses
and a bounded number of cache ports provide the back-pressure the
non-blocking memory interface of the paper's accelerator would see.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.memory.cache import SetAssociativeCache
from repro.memory.config import HierarchyConfig


class ServedBy(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"
    MSHR = "mshr"  # merged into an already outstanding fill


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access."""

    start: int          # cycle the access actually began (after port wait)
    complete: int       # cycle the data is available / write retired
    served_by: ServedBy

    @property
    def latency(self) -> int:
        return self.complete - self.start


class MemoryHierarchy:
    """The accelerator-visible memory system."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig.paper_default()
        self.l1 = SetAssociativeCache(self.config.l1)
        self.l2 = SetAssociativeCache(self.config.l2)
        self._outstanding: Dict[int, int] = {}  # line -> fill-complete cycle
        self._port_free: List[int] = [0] * self.config.cache_ports

    # ------------------------------------------------------------------
    def _claim_port(self, cycle: int) -> int:
        """Return the cycle the earliest-free port can start this access."""
        ports = self._port_free
        free = min(ports)
        start = max(cycle, free)
        ports[ports.index(free)] = start + 1  # the first earliest-free port
        return start

    def _purge(self, cycle: int) -> None:
        if not self._outstanding:
            return
        done = [line for line, ready in self._outstanding.items() if ready <= cycle]
        for line in done:
            del self._outstanding[line]

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool, cycle: int) -> AccessResult:
        """Perform a timed access beginning no earlier than *cycle*."""
        start = self._claim_port(cycle)
        self._purge(start)
        line = self.l1.line_of(addr)

        # Merge with an in-flight fill for the same line.
        if line in self._outstanding:
            ready = self._outstanding[line]
            self.l1.access(addr, is_write)  # counts as (eventual) hit
            return AccessResult(start, max(ready, start + self.config.l1.latency), ServedBy.MSHR)

        if self.l1.access(addr, is_write):
            return AccessResult(start, start + self.config.l1.latency, ServedBy.L1)

        # L1 miss: MSHR slot needed; stall if all slots busy.
        if len(self._outstanding) >= self.config.mshr_entries:
            earliest = min(self._outstanding.values())
            start = max(start, earliest)
            self._purge(start)

        if self.l2.access(addr, is_write):
            latency = self.config.l2.latency
            served = ServedBy.L2
        else:
            latency = self.config.memory_latency
            served = ServedBy.MEMORY
        complete = start + latency
        self._outstanding[line] = complete
        return AccessResult(start, complete, served)

    # ------------------------------------------------------------------
    def warm(self, addrs, is_write: bool = False) -> None:
        """Pre-touch addresses without timing (warm-up helper)."""
        for addr in addrs:
            self.l1.access(addr, is_write)
            self.l2.access(addr, is_write)

    def drain(self, cycle: int) -> int:
        """Cycle when all outstanding fills retire (fence semantics)."""
        self._purge(cycle)
        if not self._outstanding:
            return cycle
        return max(self._outstanding.values())

    def reset_timing(self) -> None:
        """Forget ports/MSHRs but keep cache contents (between regions)."""
        self._outstanding.clear()
        self._port_free = [0] * self.config.cache_ports
