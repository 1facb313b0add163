"""The region dataflow graph and memory dependency edges (MDEs).

A :class:`DFGraph` holds the operations of one acceleration region in
program order plus two edge families:

* *data edges*, implied by each operation's ``inputs``;
* *memory dependency edges* (:class:`MemoryDependencyEdge`), inserted by
  the NACHOS compiler between pairs of memory operations.

MDE kinds follow the paper (Section V):

* ``ORDER``  — 1-bit ready signal between MUST-aliasing LD→ST / ST→ST
  pairs; the younger op waits for the older op's completion.
* ``FORWARD`` — 64-bit value edge between a MUST-aliasing ST→LD pair;
  the memory dependency becomes a data dependency.
* ``MAY``    — compiler-uncertain pair.  NACHOS-SW enforces it like
  ``ORDER``; NACHOS resolves it at runtime with the ``==?`` comparator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.ir.ops import Operation


class MDEKind(enum.Enum):
    ORDER = "order"
    FORWARD = "forward"
    MAY = "may"


@dataclass(frozen=True)
class MemoryDependencyEdge:
    """A compiler-inserted ordering between two memory operations.

    ``src`` is always the *older* (smaller ``op_id``) memory operation and
    ``dst`` the younger one.
    """

    src: int
    dst: int
    kind: MDEKind

    def __post_init__(self) -> None:
        if self.src >= self.dst:
            raise ValueError(
                f"MDE must point from older to younger op ({self.src} -> {self.dst})"
            )


class GraphError(ValueError):
    """Raised when a region graph is structurally invalid."""


class DFGraph:
    """A branch-free acceleration-region dataflow graph.

    The program-order views (:attr:`ops`, :attr:`memory_ops`,
    :attr:`loads`, :attr:`stores`) are each built on first use and kept
    in one memo, ``_views``, until :meth:`add_op`, the one op-table
    mutator, drops it.  Each query still returns a fresh list.
    The stage-5 oracle hangs its region state on the graph the same way,
    as ``_oracle`` (:mod:`repro.compiler.aliasing.stage5` builds and
    reads it; the graph only drops it).  Neither memo is pickled, so a
    graph pickles to the same bytes whether or not it has been queried;
    a clone copies the views and starts without oracle state.
    """

    #: View kind -> ops in program order; None until the first query.
    _views: Optional[Dict[str, Tuple[Operation, ...]]] = None
    #: The stage-5 oracle's state for this op table; None until asked.
    _oracle: Optional[object] = None

    def __init__(self, name: str = "region") -> None:
        self.name = name
        self._ops: Dict[int, Operation] = {}
        self._mdes: List[MemoryDependencyEdge] = []
        self._users: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_op(self, op: Operation) -> Operation:
        if op.op_id in self._ops:
            raise GraphError(f"duplicate op id {op.op_id}")
        for src in op.inputs:
            if src not in self._ops:
                raise GraphError(
                    f"op {op.op_id} consumes undefined op {src}; add producers first"
                )
            if src >= op.op_id:
                raise GraphError(
                    f"op {op.op_id} consumes a younger/equal op {src}; "
                    "regions are in topological program order"
                )
        self._ops[op.op_id] = op
        self._views = None
        self._oracle = None
        self._users.setdefault(op.op_id, [])
        for src in op.inputs:
            self._users[src].append(op.op_id)
        return op

    def add_mde(self, edge: MemoryDependencyEdge) -> None:
        for end in (edge.src, edge.dst):
            if end not in self._ops:
                raise GraphError(f"MDE endpoint {end} is not an op in the region")
            if not self._ops[end].is_memory:
                raise GraphError(f"MDE endpoint {end} is not a memory operation")
        self._mdes.append(edge)

    def clear_mdes(self) -> None:
        self._mdes.clear()

    def replace_mdes(self, edges: Iterable[MemoryDependencyEdge]) -> None:
        self._mdes = list(edges)

    def clone(self) -> "DFGraph":
        """A structurally independent copy of this graph.

        Operations are immutable after construction, so they are shared;
        the op table, MDE list, and user lists are fresh containers.  A
        clone can therefore be re-annotated (``replace_mdes`` /
        ``clear_mdes``) without touching the original.  Simulation never
        needs one: every system runs the workload's own graph and hands
        its MDEs to the engine as a separate edge tuple.
        """
        g = DFGraph.__new__(DFGraph)
        g.name = self.name
        g._ops = dict(self._ops)
        g._mdes = list(self._mdes)
        g._users = {k: list(v) for k, v in self._users.items()}
        if self._views is not None:
            g._views = dict(self._views)
        return g

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_views", None)
        state.pop("_oracle", None)
        return state

    def _view(self, kind: str = "") -> Tuple[Operation, ...]:
        """The ops in program order, or those whose *kind* property
        (``"is_memory"``, ``"is_load"``, ``"is_store"``) is true."""
        views = self._views
        if views is None:
            views = self._views = {"": tuple(self._ops[k] for k in sorted(self._ops))}
        view = views.get(kind)
        if view is None:
            view = views[kind] = tuple(op for op in views[""] if getattr(op, kind))
        return view

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def op(self, op_id: int) -> Operation:
        return self._ops[op_id]

    @property
    def ops(self) -> List[Operation]:
        """Operations in program order."""
        return list(self._view())

    @property
    def mdes(self) -> List[MemoryDependencyEdge]:
        return list(self._mdes)

    def users_of(self, op_id: int) -> List[int]:
        """Ops that consume ``op_id``'s value (data edges only)."""
        return list(self._users.get(op_id, []))

    @property
    def memory_ops(self) -> List[Operation]:
        """LOAD/STORE operations in program order."""
        return list(self._view("is_memory"))

    @property
    def loads(self) -> List[Operation]:
        return list(self._view("is_load"))

    @property
    def stores(self) -> List[Operation]:
        return list(self._view("is_store"))

    def memory_rank(self) -> Dict[int, int]:
        """Map op_id -> rank among memory ops (the compiler LSQ age)."""
        return {op.op_id: i for i, op in enumerate(self.memory_ops)}

    def mdes_into(self, op_id: int) -> List[MemoryDependencyEdge]:
        return [e for e in self._mdes if e.dst == op_id]

    def mdes_out_of(self, op_id: int) -> List[MemoryDependencyEdge]:
        return [e for e in self._mdes if e.src == op_id]

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphError` if broken.

        Program-order ids, producer-before-consumer, MDE endpoints being
        memory operations, and MDE direction are enforced at construction;
        this re-checks them plus memory-op address presence.
        """
        for op in self.ops:
            for src in op.inputs:
                if src not in self._ops:
                    raise GraphError(f"dangling input {src} on op {op.op_id}")
            if op.is_memory and op.addr is None:
                raise GraphError(f"memory op {op.op_id} lost its address")
        seen: Set[Tuple[int, int, MDEKind]] = set()
        for edge in self._mdes:
            key = (edge.src, edge.dst, edge.kind)
            if key in seen:
                raise GraphError(f"duplicate MDE {key}")
            seen.add(key)

    def data_reachability(self) -> Dict[int, Set[int]]:
        """For each op, the set of ops reachable via *data* edges.

        Stage 3 uses this to drop MDEs already subsumed by a transitive
        data dependence.  Regions are DAGs in program order, so a single
        forward sweep suffices.
        """
        reach: Dict[int, Set[int]] = {op_id: set() for op_id in self._ops}
        for op in reversed(self.ops):
            for user in self._users.get(op.op_id, []):
                reach[op.op_id].add(user)
                reach[op.op_id] |= reach[user]
        return reach

    def full_reachability(self) -> Dict[int, Set[int]]:
        """Reachability over data edges *and* current MDEs."""
        succ: Dict[int, Set[int]] = {op_id: set() for op_id in self._ops}
        for op in self.ops:
            for src in op.inputs:
                succ[src].add(op.op_id)
        for edge in self._mdes:
            succ[edge.src].add(edge.dst)
        reach: Dict[int, Set[int]] = {op_id: set() for op_id in self._ops}
        for op in reversed(self.ops):
            for nxt in succ[op.op_id]:
                reach[op.op_id].add(nxt)
                reach[op.op_id] |= reach[nxt]
        return reach

    def critical_path_length(self) -> int:
        """Longest latency-weighted path over data edges and MDEs."""
        dist: Dict[int, int] = {}
        succ: Dict[int, List[int]] = {op_id: [] for op_id in self._ops}
        for op in self.ops:
            for src in op.inputs:
                succ[src].append(op.op_id)
        for edge in self._mdes:
            succ[edge.src].append(edge.dst)
        best = 0
        for op in reversed(self.ops):
            tail = max((dist[n] for n in succ[op.op_id]), default=0)
            dist[op.op_id] = op.latency + tail
            best = max(best, dist[op.op_id])
        return best

    # ------------------------------------------------------------------
    # Statistics (Table II columns)
    # ------------------------------------------------------------------
    def stats(self) -> "RegionStats":
        n_mem = len(self.memory_ops)
        return RegionStats(
            name=self.name,
            n_ops=len(self),
            n_mem=n_mem,
            n_loads=len(self.loads),
            n_stores=len(self.stores),
            n_mdes=len(self._mdes),
        )


@dataclass(frozen=True)
class RegionStats:
    """Static characteristics of a region (Table II raw material)."""

    name: str
    n_ops: int
    n_mem: int
    n_loads: int
    n_stores: int
    n_mdes: int

    @property
    def mem_fraction(self) -> float:
        return self.n_mem / self.n_ops if self.n_ops else 0.0
