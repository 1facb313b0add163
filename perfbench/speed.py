"""Host-speed reference for the benchmark's end-to-end timings.

On a shared host the same code runs at very different speeds from one
minute to the next: the pure-Python kernel below has taken anywhere
from 1.8 to 3.8 ms on one 2-vCPU virtual machine, with the program's
own passes moving by as much.  A benchmark whose figures move with that
cannot tell a regression from a busy neighbour.

So every sweep and compile pass is bracketed by :func:`measure` calls,
and probed inside too, in the process doing the work.  They time the
kernel below, which is benchmark-owned code that no change to the
program can speed up or slow down.  A pass's end-to-end times are
scaled by ``REFERENCE_S / median(probes)``: they read as the times the
pass would have taken on a host that runs the kernel in ``REFERENCE_S``.
A probe runs between the timed calls of the process taking it, and its
own time is taken out of the measured wall.  Raw times are printed
alongside.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

#: Seconds one :func:`kernel` call is taken to last on the reference host.
REFERENCE_S = 0.002

_rng = random.Random(20180224)
_DATA = [(_rng.randrange(1 << 20), str(i)) for i in range(4000)]
_TABLE = {key: (value, key & 7) for key, value in _DATA}


def kernel() -> int:
    """Dict lookups, tuple indexing and integer arithmetic over a working
    set of a few hundred kilobytes, like the program's interpreter-bound
    code.  It allocates no new containers: fresh memory costs a page fault
    per page in some processes (a forked worker, a grown heap), and the
    probe must time the host, not the caller's memory state."""
    total = 0
    for _ in range(4):
        for key, value in _DATA:
            entry = _TABLE[key]
            total += (entry[1] ^ key) + len(value)
    return total


def warm_up(seconds: float = 0.05) -> None:
    """Run the kernel untimed for a while: a process's first calls are
    slower while its heap grows and the CPU leaves idle."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kernel()


def measure(repeats: int = 5) -> float:
    """Median CPU seconds of *repeats* kernel calls, after one untimed call.

    CPU time, not wall time: a probe that waits for the CPU (another
    process on it, or another thread holding the interpreter lock) would
    otherwise time the contention, not the speed of the CPU.

    The garbage collector is off meanwhile: a collection the kernel's
    allocations set off would walk the caller's whole heap, and make the
    probe measure the program's memory instead of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        times: List[float] = []
        for _ in range(repeats):
            t0 = time.thread_time()
            kernel()
            times.append(time.thread_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(probes: List[float]) -> float:
    """Factor taking raw seconds to reference-host seconds."""
    return REFERENCE_S / statistics.median(probes)
