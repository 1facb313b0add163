"""SPEC-LSQ: a speculative, out-of-order-issue LSQ baseline.

The paper's OPT-LSQ issues memory operations into the queue in program
order, which puts the LSQ on the load-to-use critical path.  The OOO
literature the paper cites (store sets [Chrysos & Emer], fire-and-forget,
NoSQ) instead lets loads issue *speculatively* before older stores'
addresses are known and repairs the rare ordering violation.  The paper
declines to build these for accelerators ("require complex prediction
structures"); we implement one as an extra baseline so the trade-off is
measurable (see ``benchmarks/test_ablation_spec_lsq.py``).

Model:

* memory ops enter the LSQ when their own address resolves — no in-order
  issue constraint and no front-end pipeline penalty,
* a load with no known in-flight conflict and some *unresolved* older
  stores consults a store-set predictor (the static (store, load) pairs
  that violated before): a predicted dependence waits; otherwise the
  load **speculates**, reading as of its ready time,
* when the last older store's address arrives the speculation resolves:
  no late conflict keeps the early completion; a late conflict is a
  **violation** — the load replays after the conflicting stores retire,
  pays a flush penalty, and trains the predictor (persistently across
  invocations, so steady state mispredicts only truly input-dependent
  conflicts),
* stores never speculate (a publish cannot be retracted): they wait for
  every older access's address and every conflicting older access's
  completion.

Values remain exact: a load reads byte memory at its *final* completion
instant, so a replayed load observes the store it violated — the
program-order oracle validates every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.energy.config import EnergyEvent
from repro.ir.graph import DFGraph
from repro.ir.ops import Operation
from repro.obs import tracer as obs
from repro.sim.backends.base import ranges_exact, ranges_overlap
from repro.sim.engine import DataflowEngine, DisambiguationBackend


@dataclass(frozen=True)
class SpecLSQConfig:
    """Speculative LSQ parameters."""

    forward_latency: int = 1
    #: Cycles to flush and replay a violated load (pipeline repair).
    replay_penalty: int = 8


class StoreSetPredictor:
    """Minimal store-set predictor: remembers violating static pairs."""

    def __init__(self) -> None:
        self._pairs: Set[Tuple[int, int]] = set()
        self.trainings = 0

    def predicts_dependence(self, store_id: int, load_id: int) -> bool:
        return (store_id, load_id) in self._pairs

    def train(self, store_id: int, load_id: int) -> None:
        if (store_id, load_id) not in self._pairs:
            self._pairs.add((store_id, load_id))
            self.trainings += 1

    def __len__(self) -> int:
        return len(self._pairs)


class SpecLSQBackend(DisambiguationBackend):
    """Out-of-order issue LSQ with store-set dependence speculation."""

    name = "spec-lsq"

    def __init__(self, config: Optional[SpecLSQConfig] = None) -> None:
        super().__init__()
        self.config = config or SpecLSQConfig()
        self.predictor = StoreSetPredictor()
        self._rank: Dict[int, int] = {}
        self._stores_before: Dict[int, List[int]] = {}
        self._older_mem: Dict[int, List[int]] = {}
        # Per-invocation state:
        self._addr_ready: Dict[int, int] = {}
        self._value_ready: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}
        self._addr_of: Dict[int, Tuple[int, int]] = {}
        self._issued: Set[int] = set()
        # Event wait-lists: op_id -> callbacks run when that event fires.
        self._addr_waiters: Dict[int, List[Callable[[int], None]]] = {}
        self._value_waiters: Dict[int, List[Callable[[int], None]]] = {}
        self._complete_waiters: Dict[int, List[Callable[[int], None]]] = {}

    # ------------------------------------------------------------------
    def attach(self, engine: DataflowEngine, graph: DFGraph, placement) -> None:
        super().attach(engine, graph, placement)
        mem = graph.memory_ops
        self._rank = {op.op_id: k for k, op in enumerate(mem)}
        self._stores_before = {
            op.op_id: [s.op_id for s in mem if s.is_store and s.op_id < op.op_id]
            for op in mem
        }
        self._older_mem = {
            op.op_id: [o.op_id for o in mem if o.op_id < op.op_id] for op in mem
        }

    def begin_invocation(self, inv, t0, addr_of) -> None:
        self._addr_ready.clear()
        self._value_ready.clear()
        self._completed.clear()
        self._issued.clear()
        self._addr_waiters.clear()
        self._value_waiters.clear()
        self._complete_waiters.clear()
        self._addr_of = addr_of

    # ------------------------------------------------------------------
    # Wait-list plumbing
    # ------------------------------------------------------------------
    def _when_addr(self, op_id: int, fn: Callable[[int], None]) -> None:
        if op_id in self._addr_ready:
            fn(self._addr_ready[op_id])
        else:
            self._addr_waiters.setdefault(op_id, []).append(fn)

    def _when_value(self, op_id: int, fn: Callable[[int], None]) -> None:
        if op_id in self._value_ready:
            fn(self._value_ready[op_id])
        else:
            self._value_waiters.setdefault(op_id, []).append(fn)

    def _when_complete(self, op_id: int, fn: Callable[[int], None]) -> None:
        if op_id in self._completed:
            fn(self._completed[op_id])
        else:
            self._complete_waiters.setdefault(op_id, []).append(fn)

    def _when_all(
        self,
        waiter,
        ids: List[int],
        then: Callable[[int], None],
        floor: int = 0,
    ) -> None:
        """Run *then* once *waiter* has fired for every id in *ids*."""
        remaining = {"n": len(ids), "t": floor}
        if not ids:
            then(floor)
            return

        def one(t: int) -> None:
            remaining["n"] -= 1
            remaining["t"] = max(remaining["t"], t)
            if remaining["n"] == 0:
                then(remaining["t"])

        for op_id in ids:
            waiter(op_id, one)

    # ------------------------------------------------------------------
    # Engine notifications
    # ------------------------------------------------------------------
    def on_addr_ready(self, op: Operation, t: int) -> None:
        self._addr_ready[op.op_id] = t
        self.stats.bloom_probes += 1
        self.engine.energy.charge(EnergyEvent.LSQ_BLOOM)
        self.stats.cam_checks += 1
        self.engine.energy.charge(
            EnergyEvent.LSQ_CAM_STORE if op.is_store else EnergyEvent.LSQ_CAM_LOAD
        )
        if self._trace is not None:
            # Every resolved address probes and CAM-searches the queue
            # (no bloom filtering in this OOO model, hence no hit arg).
            self._trace.emit(obs.BLOOM_PROBE, t, op=op.op_id)
            self._trace.emit(obs.CAM_SEARCH, t, op=op.op_id)
        for fn in self._addr_waiters.pop(op.op_id, []):
            fn(t)
        if op.is_load:
            self._handle_load(op, t)
        else:
            self._maybe_store(op)

    def on_value_ready(self, op: Operation, t: int) -> None:
        self._value_ready[op.op_id] = t
        for fn in self._value_waiters.pop(op.op_id, []):
            fn(t)

    def on_memory_complete(self, op: Operation, t: int) -> None:
        self._completed[op.op_id] = t
        for fn in self._complete_waiters.pop(op.op_id, []):
            fn(t)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def _conflicting(self, oid: int, among: List[int]) -> List[int]:
        my_range = self._addr_of[oid]
        return [
            s for s in among if ranges_overlap(self._addr_of[s], my_range)
        ]

    def _handle_load(self, op: Operation, t_ready: int) -> None:
        oid = op.op_id
        if oid in self._issued:
            return
        resolved = [s for s in self._stores_before[oid] if s in self._addr_ready]
        unresolved = [s for s in self._stores_before[oid] if s not in self._addr_ready]
        known_live = [
            s for s in self._conflicting(oid, resolved) if s not in self._completed
        ]
        predicted = [
            s for s in unresolved if self.predictor.predicts_dependence(s, oid)
        ]

        if not unresolved:
            self._issued.add(oid)
            self._finish_load(op, t_ready)
            return

        if known_live or predicted:
            # A known in-flight conflict (or a predicted one) gates the
            # load: wait until every older store address is known, then
            # take the precise path.  This forgoes some speculation but
            # never retracts anything.
            self._issued.add(oid)
            self._when_all(
                self._when_addr,
                unresolved,
                lambda t: self._finish_load(op, max(t_ready, t)),
                floor=t_ready,
            )
            return

        # Speculate: read now, verify when the stragglers resolve.
        self._issued.add(oid)
        self.stats.speculations += 1
        t_spec = t_ready
        if self._trace is not None:
            self._trace.emit(obs.SPECULATION, t_spec, op=oid)

        def verify(_t: int) -> None:
            late = [
                s
                for s in self._conflicting(oid, unresolved)
                if not self._store_observed_by(s, t_spec)
            ]
            if late:
                self.stats.violations += 1
                if self._trace is not None:
                    self._trace.emit(
                        obs.VIOLATION, _t, op=oid, args={"stores": list(late)}
                    )
                for s in late:
                    self.predictor.train(s, oid)
                all_conflicts = self._conflicting(oid, self._stores_before[oid])
                live = [s for s in all_conflicts if s not in self._completed]
                # The replay cannot begin before the violation is detected
                # (`_t`, the verify instant) — flooring at `t_spec` would
                # let the replayed read slip in front of a violated store
                # completing between speculation and detection.
                self._when_all(
                    self._when_complete,
                    live,
                    lambda t: self._replayed_read(op, t),
                    floor=_t,
                )
            else:
                self.engine.do_load(op, t_spec)

        self._when_all(self._when_addr, unresolved, verify, floor=t_spec)

    def _store_observed_by(self, store_id: int, t_spec: int) -> bool:
        """Did *store_id*'s publish land in time for a read at ``t_spec``?

        The engine drains same-cycle events in scheduling order and a
        store's value is published to byte memory at its completion
        instant, so by the time the verify callback runs, any store whose
        completion cycle is <= ``t_spec`` has already published and the
        speculative read observed it.  Using a strict `<` here would count
        a store completing exactly at ``t_spec`` as a violation and force
        a spurious replay (pinned by the same-cycle litmus test).
        """
        return store_id in self._completed and self._completed[store_id] <= t_spec

    def _replayed_read(self, op: Operation, t_last_store: int) -> None:
        self.stats.replays += 1
        if self._trace is not None:
            self._trace.emit(
                obs.REPLAY,
                t_last_store,
                dur=self.config.replay_penalty,
                op=op.op_id,
            )
        self.engine.do_load(op, t_last_store + self.config.replay_penalty)

    def _finish_load(self, op: Operation, t: int) -> None:
        """All older store addresses known: forward, wait, or read."""
        oid = op.op_id
        conflicts = self._conflicting(oid, self._stores_before[oid])
        live = [s for s in conflicts if s not in self._completed]
        if live:
            youngest = max(live, key=lambda s: self._rank[s])
            if ranges_exact(self._addr_of[youngest], self._addr_of[oid]):
                self.stats.lsq_forwards += 1
                if self._trace is not None:
                    self._trace.emit(
                        obs.LSQ_FORWARD, t, op=oid, args={"src": youngest}
                    )
                self.engine.energy.charge(EnergyEvent.LSQ_FORWARD)
                self._when_value(
                    youngest,
                    lambda tv: self.engine.forward_load(
                        op,
                        self.graph.op(youngest),
                        max(t, tv) + self.config.forward_latency,
                    ),
                )
                return
            self._when_all(
                self._when_complete,
                live,
                lambda tc: self.engine.do_load(op, max(t, tc + 1)),
                floor=t,
            )
            return
        done = [self._completed[s] for s in conflicts if s in self._completed]
        start = max(t, max(done) + 1) if done else t
        self.engine.do_load(op, start)

    # ------------------------------------------------------------------
    # Stores — never speculative
    # ------------------------------------------------------------------
    def _maybe_store(self, op: Operation) -> None:
        oid = op.op_id
        if oid in self._issued:
            return
        self._issued.add(oid)
        older = self._older_mem[oid]

        def with_value(tv: int) -> None:
            def with_addrs(ta: int) -> None:
                conflicts = self._conflicting(oid, older)
                live = [c for c in conflicts if c not in self._completed]
                done = [self._completed[c] for c in conflicts if c in self._completed]
                floor = max(self._addr_ready[oid], tv, ta)
                if done:
                    floor = max(floor, max(done) + 1)
                self._when_all(
                    self._when_complete,
                    live,
                    lambda tc: self.engine.do_store(op, max(floor, tc + 1)),
                    floor=floor,
                )

            pending = [o for o in older if o not in self._addr_ready]
            self._when_all(self._when_addr, pending, with_addrs, floor=tv)

        self._when_value(oid, with_value)
