"""Shared MDE-enforcement machinery for the NACHOS backends.

Both NACHOS-SW and NACHOS enforce compiler-inserted MDEs instead of using
an LSQ.  The difference is confined to MAY edges:

* NACHOS-SW resolves a MAY edge only when the older operation completes
  (it is treated exactly like an ORDER edge);
* NACHOS additionally owns a ``==?`` comparator at the younger op's
  functional unit and can resolve a MAY edge early when the runtime
  addresses do not overlap — and can even *forward* a conflicting store's
  value to a load.

This base class implements the whole protocol with the hardware checks
behind a flag (:attr:`hardware_checks`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.energy.config import EnergyEvent
from repro.ir.graph import DFGraph, MDEKind, MemoryDependencyEdge
from repro.ir.ops import Operation
from repro.obs import tracer as obs
from repro.sim.engine import _LOAD, _STORE, DataflowEngine, DisambiguationBackend

Pair = Tuple[int, int]


def ranges_overlap(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """Do byte ranges (addr, width) intersect?"""
    return a[0] < b[0] + b[1] and b[0] < a[0] + a[1]


def ranges_exact(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a == b


class MDEBackendBase(DisambiguationBackend):
    """Enforces ORDER / FORWARD / MAY edges over the dataflow fabric."""

    #: Subclasses set this: True enables the runtime ==? comparator.
    hardware_checks = False
    #: Comparators available at each younger op's functional unit.
    comparators_per_fu = 1

    def __init__(self) -> None:
        super().__init__()
        self._parents: Dict[int, List[MemoryDependencyEdge]] = {}
        self._children: Dict[int, List[MemoryDependencyEdge]] = {}
        self._forward_src: Dict[int, int] = {}  # load -> forwarding store
        self._kind: Dict[int, int] = {}  # the engine's op-kind table
        self._n_parents: Dict[int, int] = {}  # op -> distinct parent pairs
        # Per-invocation state:
        self._addr_ready: Dict[int, int] = {}
        self._value_ready: Dict[int, int] = {}
        self._resolved: Dict[Pair, int] = {}       # edge -> resolution cycle
        self._pending: Dict[int, int] = {}         # op -> unresolved parents
        self._release: Dict[int, int] = {}         # op -> latest resolution
        self._conflict: Dict[Pair, bool] = {}      # comparator verdicts
        self._checked: Set[Pair] = set()
        self._fu_free: Dict[int, List[int]] = {}   # comparator pool per op
        self._issued: Set[int] = set()
        self._addr_of: Dict[int, Tuple[int, int]] = {}
        self._t0 = 0
        self._blocked_since: Dict[int, int] = {}   # tracing only

    # ------------------------------------------------------------------
    def attach(self, engine: DataflowEngine, graph: DFGraph, placement) -> None:
        super().attach(engine, graph, placement)
        self._kind = engine._kind
        self._parents = {op.op_id: [] for op in graph.memory_ops}
        self._children = {op.op_id: [] for op in graph.memory_ops}
        self._forward_src = {}
        for edge in engine.mdes:
            self._parents[edge.dst].append(edge)
            self._children[edge.src].append(edge)
            if edge.kind is MDEKind.FORWARD:
                self._forward_src[edge.dst] = edge.src
        self._n_parents = {
            oid: len({(e.src, e.dst) for e in edges})
            for oid, edges in self._parents.items()
        }

    def begin_invocation(self, inv, t0, addr_of) -> None:
        self._addr_ready.clear()
        self._value_ready.clear()
        self._resolved.clear()
        self._pending = dict(self._n_parents)
        self._release.clear()
        self._conflict.clear()
        self._checked.clear()
        self._fu_free.clear()
        self._issued.clear()
        self._addr_of = addr_of
        self._t0 = t0
        self._blocked_since.clear()

    # ------------------------------------------------------------------
    # Engine notifications
    # ------------------------------------------------------------------
    def on_addr_ready(self, op: Operation, t: int) -> None:
        self._addr_ready[op.op_id] = t
        if self.hardware_checks:
            self._schedule_checks_for(op, t)
        self._try_issue(op.op_id, t)

    def on_value_ready(self, op: Operation, t: int) -> None:
        self._value_ready[op.op_id] = t
        self._try_issue(op.op_id, t)
        # A store's value becoming ready can unblock forwarded loads.
        for edge in self._children.get(op.op_id, []):
            if edge.kind in (MDEKind.FORWARD, MDEKind.MAY):
                self._retry(edge.dst, t)

    def on_memory_complete(self, op: Operation, t: int) -> None:
        when = t + self.engine.config.order_signal_latency
        for edge in self._children.get(op.op_id, []):
            pair = (edge.src, edge.dst)
            if pair in self._resolved:
                continue
            self._resolve(pair, when)
            if edge.kind is MDEKind.ORDER or (
                edge.kind is MDEKind.MAY and not self.hardware_checks
            ):
                # A MAY edge without hardware checks (NACHOS-SW) is
                # serialized exactly like an ORDER edge (1-bit).
                self.engine.energy.charge(EnergyEvent.MDE_MUST)
                self.stats.order_waits += 1
                if self._trace is not None:
                    self._emit_order_wait(edge, when)
            elif (
                edge.kind is MDEKind.MAY
                and self.hardware_checks
                and self._conflict.get(pair) is True
                and edge.dst not in self._issued
            ):
                # NACHOS with a conflicting `==?` verdict that was not
                # satisfied by a forward: the younger op really stalled
                # until this completion — an order wait, even though no
                # 1-bit MDE signal was charged for it.
                self.stats.order_waits += 1
                if self._trace is not None:
                    self._emit_order_wait(edge, when)
            self._retry(edge.dst, when)

    # ------------------------------------------------------------------
    def _resolve(self, pair: Pair, when: int) -> None:
        """Resolve MDE *pair* at cycle *when* (the only ``_resolved`` writer).

        Keeps the younger op's unresolved-parent count and its latest
        resolution cycle, so :meth:`_try_issue` tests both in O(1).
        """
        self._resolved[pair] = when
        dst = pair[1]
        self._pending[dst] -= 1
        if when > self._release.get(dst, -1):
            self._release[dst] = when

    def _retry(self, op_id: int, when: int) -> None:
        """Re-evaluate *op_id* at cycle *when*.

        No event for an op that already issued: it stays issued.  No
        event for an op whose address is not ready either:
        :meth:`on_addr_ready` evaluates it when the address arrives.
        That second drop is checked, not guaranteed.  Such a retry would
        issue the op only if the address and the op's last parent
        resolution both landed before it ran, ahead of that resolution's
        own retry; ``tests/test_backend_issue_order.py`` finds no such
        case.  Every other retry is kept, even with parents unresolved,
        for that same reason: a retry that runs after a resolution is
        recorded, but before the resolution's own retry, issues the op
        earlier in the cycle's event order, and the FCFS cache ports and
        comparators see that order.
        """
        if op_id in self._issued or op_id not in self._addr_ready:
            return
        self.engine.schedule(when, lambda: self._try_issue(op_id, when))

    # ------------------------------------------------------------------
    # Tracing helpers (no-ops unless a tracer is attached)
    # ------------------------------------------------------------------
    def _emit_order_wait(self, edge: MemoryDependencyEdge, when: int) -> None:
        """One order-wait span per serialized edge resolution.

        The wait extent runs from the younger op's address readiness
        (if it was already waiting) to the resolution instant.
        """
        dst_ready = self._addr_ready.get(edge.dst)
        wait = max(0, when - dst_ready) if dst_ready is not None else 0
        self._trace.emit(
            obs.ORDER_WAIT,
            when - wait,
            dur=wait,
            op=edge.dst,
            args={"src": edge.src, "edge": edge.kind.name.lower()},
        )

    def _note_blocked(self, op_id: int, now: int) -> None:
        self._blocked_since.setdefault(op_id, now)

    def _emit_unblocked(self, op_id: int, t_issue: int) -> None:
        since = self._blocked_since.pop(op_id, None)
        if since is not None and t_issue > since:
            self._trace.emit(
                obs.OP_BLOCKED, since, dur=t_issue - since, op=op_id
            )

    # ------------------------------------------------------------------
    # NACHOS comparator (hardware_checks only)
    # ------------------------------------------------------------------
    def _schedule_checks_for(self, op: Operation, t: int) -> None:
        """New address available: schedule ==? checks it participates in."""
        oid = op.op_id
        for edge in self._parents.get(oid, []):
            if edge.kind is MDEKind.MAY and edge.src in self._addr_ready:
                self._schedule_check(edge)
        for edge in self._children.get(oid, []):
            if edge.kind is MDEKind.MAY and edge.dst in self._addr_ready:
                self._schedule_check(edge)

    def _schedule_check(self, edge: MemoryDependencyEdge) -> None:
        pair = (edge.src, edge.dst)
        if pair in self._checked or pair in self._resolved:
            return
        self._checked.add(pair)
        route = self.placement.route_latency(edge.src, edge.dst)
        ready = max(
            self._addr_ready[edge.dst],
            self._addr_ready[edge.src] + route,
        )
        # One comparison per comparator per cycle at the younger op's
        # functional unit; simultaneous parents arbitrate (round-robin
        # modeled as FCFS over the comparator pool).
        pool = self._fu_free.setdefault(
            edge.dst, [self._t0] * self.comparators_per_fu
        )
        free = min(pool)
        start = max(ready, free)
        pool[pool.index(free)] = start + 1  # the first earliest-free slot
        self.engine.schedule(start + 1, lambda: self._run_check(edge, start + 1))

    def _run_check(self, edge: MemoryDependencyEdge, t: int) -> None:
        pair = (edge.src, edge.dst)
        if pair in self._resolved:
            return  # parent completed first
        self.engine.energy.charge(EnergyEvent.MDE_MAY_CHECK)
        self.stats.comparator_checks += 1
        conflict = ranges_overlap(self._addr_of[edge.src], self._addr_of[edge.dst])
        self._conflict[pair] = conflict
        if self._trace is not None:
            self._trace.emit(
                obs.COMPARATOR_CHECK,
                t,
                op=edge.dst,
                args={"src": edge.src, "conflict": conflict},
            )
        if conflict:
            self.stats.comparator_conflicts += 1
            # Resolution waits for the older op's completion — but the
            # younger op must still re-evaluate: an exactly-matching
            # conflicting store can forward its value (ST->LD).
            self._retry(edge.dst, t)
            return
        self._resolve(pair, t)
        self._retry(edge.dst, t)

    # ------------------------------------------------------------------
    # Issue logic
    # ------------------------------------------------------------------
    def _try_issue(self, op_id: int, now: int) -> None:
        if op_id in self._issued:
            return
        t_start = self._addr_ready.get(op_id)
        if t_start is None:
            return
        is_load = self._kind[op_id] == _LOAD
        if not is_load:
            t_value = self._value_ready.get(op_id)
            if t_value is None:
                return
            if t_value > t_start:
                t_start = t_value
        elif op_id in self._forward_src:
            self._try_forward_static(op_id, now)
            return

        if self._pending[op_id]:
            if self._trace is not None:
                self._note_blocked(op_id, now)
            if is_load and self.hardware_checks:
                self._try_forward_runtime(op_id, now)
            return

        release = self._release.get(op_id)
        if release is not None and release > t_start:
            t_start = release
        self._issued.add(op_id)
        if self._trace is not None:
            self._emit_unblocked(op_id, t_start)
        if is_load:
            self.engine.do_load(self.graph.op(op_id), t_start)
        else:
            self.engine.do_store(self.graph.op(op_id), t_start)

    # ------------------------------------------------------------------
    def _try_forward_static(self, op_id: int, now: int) -> None:
        """Complete a load via its compile-time FORWARD edge.

        MDE insertion guarantees the forwarding store is the youngest
        older store that can alias the load, so only its value matters.
        """
        src_id = self._forward_src[op_id]
        if src_id not in self._value_ready:
            return
        route = self.placement.route_latency(src_id, op_id)
        t = max(
            self._addr_ready[op_id],
            self._value_ready[src_id] + route,
        ) + self.engine.config.forward_latency
        self._issued.add(op_id)
        if self._trace is not None:
            self._emit_unblocked(op_id, t)
        self.engine.energy.charge(EnergyEvent.MDE_FORWARD)
        self.engine.forward_load(self.graph.op(op_id), self.graph.op(src_id), t)

    def _try_forward_runtime(self, op_id: int, now: int) -> None:
        """NACHOS-only: forward from a conflicting MAY store.

        Safe when exactly one parent is unresolved, it is a store whose
        verdict is a *conflict* that exactly covers the load, and its
        value has arrived: every other potentially-aliasing older store
        has either completed (writing memory the conflicting store will
        logically supersede — the two conflicting stores overlap each
        other and are therefore mutually ordered) or was proven
        non-conflicting.
        """
        if self._pending[op_id] != 1:
            return
        resolved = self._resolved
        unresolved = [
            e for e in self._parents[op_id] if (e.src, e.dst) not in resolved
        ]
        if len(unresolved) != 1:
            return  # duplicate edges of the one unresolved pair
        src_id = unresolved[0].src
        if self._conflict.get((src_id, op_id)) is not True:
            return
        if self._kind[src_id] != _STORE:
            return
        if not ranges_exact(self._addr_of[src_id], self._addr_of[op_id]):
            return
        if src_id not in self._value_ready:
            return
        route = self.placement.route_latency(src_id, op_id)
        t = max(
            self._addr_ready[op_id],
            self._value_ready[src_id] + route,
        ) + self.engine.config.forward_latency
        self._issued.add(op_id)
        self.stats.runtime_forwards += 1
        if self._trace is not None:
            self._trace.emit(
                obs.RUNTIME_FORWARD, t, op=op_id, args={"src": src_id}
            )
            self._emit_unblocked(op_id, t)
        self.engine.energy.charge(EnergyEvent.MDE_FORWARD)
        self.engine.forward_load(self.graph.op(op_id), self.graph.op(src_id), t)
