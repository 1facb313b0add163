"""The fast execution path: invocation schedule templates + calendar queue.

A NACHOS region is a branch-free dataflow graph, so every operation with
no transitive memory-dependent input — the *static subgraph*: sources,
address arithmetic, pure compute chains — executes with exactly the same
relative timing on every invocation.  Only memory operations, their
dependents, and the disambiguation backend's machinery (the subject of
the paper) actually vary.  :class:`FastEngine` exploits that split:

* **Invocation schedule templates.**  On the first invocation the engine
  mini-simulates the static subgraph once and compiles it into a
  template: a ``t0`` action program (what the synchronous kick phase
  does), one precompiled queue event per *relevant* static op, bulk
  energy counts, and a topologically ordered value program restricted to
  static values that something dynamic actually reads.  Later
  invocations replay the template instead of re-simulating: no per-op
  run-state allocation, no per-event closure creation, no delivery walks
  for static-only fanout — and for memory ops fed entirely by static
  producers, no per-delivery bookkeeping either: the backend notify
  fires directly at the captured final-arrival position.

* **A lean dynamic path.**  Memory ops and everything downstream of one
  run live, through the engine's own ``_start_compute`` / ``_finish``:
  they read op kinds from the int table the base engine builds (no
  opcode property calls), and the template's bulk charge covers the ALU
  and network energy of the *whole* region, so only backend-driven
  events (L1, LSQ, MDE) are charged per call.  That is exact because a
  branch-free region runs every op exactly once per invocation — both
  engines raise ``RuntimeError`` naming the op if one never completes.

* **Dead tails in closed form.**  A *tail* is a dynamic compute op all
  of whose users are tails (memory ops never are): it feeds no load,
  store or address, so it can move only the invocation's last
  completion cycle.  Tails run no events at all.  Capture drops every
  delivery into one, and after the drain one topologically ordered
  walk settles each tail's completion as ``latency + max(t0 + const,
  input completion + route ...)`` and folds it into the invocation
  end.  Their values are never computed: nothing reads them.

* **Slotted event queue.**  :class:`_CalendarQueue` replaces per-event
  ``heapq`` churn with per-cycle buckets (a dict keyed by cycle plus a
  small heap of occupied cycles).  Same-cycle events drain in push
  (FIFO) order — the engine contract pinned by
  ``tests/test_litmus.py::test_same_cycle_drain_order`` — and a tiny
  overflow heap preserves exact ``(time, seq)`` semantics for the
  never-observed-in-practice case of an event scheduled in the past.

**Bit-exactness is the contract.**  The template keeps one queue event
per static op that still *does* something (pushes a later template event
or delivers an operand to a dynamic op that is not a tail), pushed at
the exact moment the reference engine would have pushed it.  Push
chronology is what breaks same-cycle ties, and the memory hierarchy
(LRU, ports, MSHRs) plus ``load_values`` insertion order are call-order
sensitive — so preserving the interleaving of every event that can
reach the backend or the hierarchy is mandatory, and sufficient (which
is why dropping tail events, which reach neither, is exact): the differential
suite (``tests/test_engine_equivalence.py``) asserts byte-identical
pickled :class:`~repro.sim.result.SimResult` across modes.

What the template may *not* assume invalidates it: an enabled tracer
(the one-event-per-counter contract needs the reference loop) and
``model_link_contention`` (mesh-link state is cross-invocation, so
static timing is no longer invocation-invariant).  The factory
(:func:`repro.sim.factory.make_engine`) builds the reference engine
instead in both cases — loudly when ``fast`` was named, silently under
the default rule; constructing :class:`FastEngine` directly with either
raises.
"""

from __future__ import annotations

import dataclasses
import heapq
from functools import partial
from itertools import count
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.energy.config import EnergyEvent
from repro.ir.opcodes import Opcode
from repro.ir.ops import Operation
from repro.sim.engine import _COMPUTE, _LOAD, _STORE, DataflowEngine, _OpRun
from repro.sim.values import mix

# Template/kick action opcodes (first tuple element).  Actions refer to
# template events by *index* and to ops by *id*, so a captured template
# is engine- and graph-free: the same region simulated under five
# backends shares one capture (cached on the placement), and each engine
# binds the ids to its own ops and its own event closures.
_PUSH = 0          # (_PUSH, time_offset, event_index)
_DELIVER = 1       # (_DELIVER, user, n_addr, n_value, arrive_offset)
_KICK2 = 2         # (_KICK2, op) — constant-address memory notify at t0
_NOTIFY_ADDR = 3   # (_NOTIFY_ADDR, user, time_offset)
_NOTIFY_VALUE = 4  # (_NOTIFY_VALUE, user, time_offset)
_NOTIFY_K2 = 5     # (_NOTIFY_K2, op) — early addr notify of a kick==2 op

# Value-program opcodes.
_VAL_INPUT = 0   # mix(0x1F, op_id, inv) — matches _source_value
_VAL_CONST = 1   # invocation-invariant, pre-mixed at capture
_VAL_MIX = 2     # mix(mix_id, *inputs)


class _CalendarQueue:
    """Per-cycle event buckets with exact ``(time, seq)`` heapq order.

    Items are zero-argument callables.  Within a bucket, list order is
    push order, which *is* seq order; across buckets, a min-heap of
    occupied cycles gives time order.  Pushes landing on the cycle
    currently draining append to the live bucket and are picked up by
    the index-based drain loop — exactly heapq's behaviour for a
    same-cycle push (larger seq than everything already queued).  Pushes
    strictly in the past (no engine or backend does this today) go to a
    small overflow heap drained before the current bucket continues,
    again matching heapq.
    """

    __slots__ = ("push", "drain", "size")

    def __init__(self) -> None:
        # All queue state lives in closure cells: ``push`` runs for
        # every scheduled event, and cell loads are measurably cheaper
        # than attribute lookups at that call rate.
        buckets: Dict[int, List[Callable[[], None]]] = {}
        cycles: List[int] = []
        late: List[Tuple[int, int, Callable[[], None]]] = []
        seq = count()
        now = -1
        heappush = heapq.heappush
        heappop = heapq.heappop

        def push(time: int, fn: Callable[[], None]) -> None:
            # An existing bucket is always current-or-future (drained
            # buckets are deleted), so the append path needs no time
            # comparison at all.
            bucket = buckets.get(time)
            if bucket is not None:
                bucket.append(fn)
            elif time >= now:
                buckets[time] = [fn]
                heappush(cycles, time)
            else:
                heappush(late, (time, next(seq), fn))

        def drain() -> None:
            nonlocal now
            while cycles:
                cycle = heappop(cycles)
                bucket = buckets[cycle]
                now = cycle
                i = 0
                while i < len(bucket):
                    bucket[i]()
                    i += 1
                    while late:
                        heappop(late)[2]()
                del buckets[cycle]
            now = -1

        def size() -> int:
            return sum(len(b) for b in buckets.values()) + len(late)

        self.push = push
        self.drain = drain
        self.size = size

    def __len__(self) -> int:
        return self.size()


class _Template:
    """One region's compiled static schedule (see module docstring).

    Actions and run-time tables name ops by id, never by object, so one
    template serves every graph with the same op signature: an engine
    binds the ids to its own graph's ops when it attaches.
    """

    __slots__ = (
        "kick_actions",
        "event_actions",
        "n_alu_int",
        "n_alu_fp",
        "net_charge",
        "static_end",
        "value_program",
        "value_cache",
        "static_ids",
        "static_times",
        "tail_ids",
        "tail_program",
    )


class FastEngine(DataflowEngine):
    """Template-replaying engine, bit-exact with :class:`DataflowEngine`."""

    def __init__(self, *args, **kwargs) -> None:
        self._queue = _CalendarQueue()
        super().__init__(*args, **kwargs)
        if self._trace is not None:
            raise ValueError(
                "FastEngine cannot honour the trace contract; use "
                "make_engine(), which falls back to the reference engine"
            )
        if self._contention:
            raise ValueError(
                "FastEngine requires model_link_contention=False (link "
                "state is cross-invocation); use make_engine()"
            )
        self._template: Optional[_Template] = None
        self._kick_actions: List[tuple] = []
        self._fires: List[Optional[Callable[[], None]]] = []
        self._dyn_init: List[Tuple[Operation, int, int]] = []
        self._dyn_ops: List[Operation] = []
        self._live_plans: Dict[int, list] = {}
        self._static_times: List[Tuple[Operation, int, int]] = []
        self._t0 = 0
        # Shadow the method with the queue's push: every event the
        # engine or a backend schedules then skips a dispatch layer.
        self.schedule = self._queue.push

    # -- event plumbing (backends call schedule through here) -----------
    def schedule(self, time: int, fn: Callable[[], None]) -> None:
        self._queue.push(time, fn)

    def _drain_events(self) -> None:
        self._queue.drain()

    # ------------------------------------------------------------------
    # The dynamic path: memory ops and everything downstream of one.
    # Unlike the reference engine these charge no ALU/NET energy — the
    # template's per-invocation bulk charge covers every op, which is
    # exact because every op completes exactly once per invocation
    # (checked at the end of each one).  Delivery is the reference
    # engine's _deliver.
    # ------------------------------------------------------------------
    def _start_compute(self, op: Operation, t: int) -> None:
        oid = op.op_id
        latency, _event, mix_id, inputs = self._exec_plan[oid]
        done = t + latency
        self._run[oid].start_time = t
        values = self.values

        def complete() -> None:
            values[oid] = mix(mix_id, *(values[i] for i in inputs))
            self._finish(op, done)

        self.schedule(done, complete)

    def _finish(self, op: Operation, t: int) -> None:
        oid = op.op_id
        state = self._run[oid]
        state.completed = True
        state.complete_time = t
        if t > self._inv_end:
            self._inv_end = t
        if self._kind[oid] != _COMPUTE:
            self.backend.on_memory_complete(op, t)
        deliver = self._deliver
        for user, n_addr, n_value, _net, route in self._live_plans[oid]:
            deliver(user, n_addr, n_value, t + route)

    # ------------------------------------------------------------------
    # Template capture: one mini-simulation of the static subgraph
    # ------------------------------------------------------------------
    def _static_op_ids(self) -> Set[int]:
        """Ops with no transitive memory-dependent input (sources and
        pure compute); memory ops and everything downstream of one are
        dynamic."""
        by_id = {op.op_id: op for op in self._ops}
        static: Dict[int, bool] = {}
        for op in self._ops:
            stack = [op.op_id]
            while stack:
                oid = stack[-1]
                if oid in static:
                    stack.pop()
                    continue
                cur = by_id[oid]
                if self._kind[oid] != _COMPUTE:
                    static[oid] = False
                    stack.pop()
                    continue
                unresolved = [i for i in cur.inputs if i not in static]
                if unresolved:
                    stack.extend(unresolved)
                    continue
                static[oid] = all(static[i] for i in cur.inputs)
                stack.pop()
        return {oid for oid, s in static.items() if s}

    def _tail_op_ids(self, static_ids: Set[int]) -> Set[int]:
        """Dynamic compute ops all of whose users are tails.  Ops are in
        topological order, so one reverse walk sees every user first."""
        tails: Set[int] = set()
        for op in reversed(self._ops):
            oid = op.op_id
            if (
                oid not in static_ids
                and self._kind[oid] == _COMPUTE
                and all(p[0].op_id in tails for p in self._plans[oid])
            ):
                tails.add(oid)
        return tails

    def _build_template(self) -> _Template:
        static_ids = self._static_op_ids()
        tails = self._tail_op_ids(static_ids)
        by_id = {op.op_id: op for op in self._ops}
        kind_of = self._kind
        exec_plan = self._exec_plan
        plans = self._plans

        # Memory ops whose addr (or, for stores, value) operand set is
        # fed entirely by static producers: every arrival is capture-time
        # constant, so the per-delivery bookkeeping prefolds into one
        # backend-notify action at the exact drain position where the
        # reference engine's final delivery lands.  The op's _OpRun
        # pendings then simply stay at their initial (non-zero) values —
        # nothing reads them once no runtime delivery can reach the op,
        # and the non-zero sentinel keeps _deliver's notify guards inert
        # for any remaining mixed-component deliveries.
        stat_feed: Dict[int, List[int]] = {}  # user -> [n_addr, n_value]
        dyn_feed: Dict[int, List[int]] = {}
        for src_id, plan in plans.items():
            table = stat_feed if src_id in static_ids else dyn_feed
            for user, n_addr, n_value, _net, _route in plan:
                if kind_of[user.op_id] != _COMPUTE:
                    tot = table.setdefault(user.op_id, [0, 0])
                    tot[0] += n_addr
                    tot[1] += n_value
        addr_track: Dict[int, List[int]] = {}  # user -> [remaining, max_arrive]
        value_track: Dict[int, List[int]] = {}
        for uid, (na, nv) in stat_feed.items():
            dyn = dyn_feed.get(uid, (0, 0))
            if na and not dyn[0]:
                addr_track[uid] = [na, 0]
            if nv and not dyn[1]:
                value_track[uid] = [nv, 0]

        kick_actions: List[tuple] = []
        #: (completion_offset, actions, op) in push order.
        events: List[Tuple[int, list, Operation]] = []
        mini: List[Tuple[int, int, int]] = []  # (done, seq, event_index)
        seq = count()
        pend: Dict[int, List[int]] = {}  # static op -> [pending, inputs_time]
        run_times: Dict[int, Tuple[int, int]] = {}  # op -> (start, complete)
        value_order: List[Operation] = []  # completion (drain) order
        static_end = 0

        for op, pa, _pv, kick in self._op_init:
            if kick == 0 and op.op_id in static_ids:
                pend[op.op_id] = [pa, 0]

        def start_compute(op: Operation, t: int, out: list) -> None:
            done = t + exec_plan[op.op_id][0]
            actions: list = []
            idx = len(events)
            events.append((done, actions, op))
            out.append((_PUSH, done, idx))
            heapq.heappush(mini, (done, next(seq), idx))
            run_times[op.op_id] = (t, done)

        def finish(op: Operation, t: int, out: list) -> None:
            nonlocal static_end
            if t > static_end:
                static_end = t
            for user, n_addr, n_value, _net, route in plans[op.op_id]:
                arrive = t + route
                state = pend.get(user.op_id)
                if state is not None:  # static consumer: fold in
                    state[0] -= n_addr
                    if arrive > state[1]:
                        state[1] = arrive
                    if state[0] == 0:
                        start_compute(user, state[1], out)
                elif user.op_id not in tails:  # dynamic: replay or prefold
                    uid = user.op_id
                    at = addr_track.get(uid) if n_addr else None
                    vt = value_track.get(uid) if n_value else None
                    da, dv = n_addr, n_value
                    if at is not None:
                        at[0] -= n_addr
                        if arrive > at[1]:
                            at[1] = arrive
                        da = 0
                    if vt is not None:
                        vt[0] -= n_value
                        if arrive > vt[1]:
                            vt[1] = arrive
                        dv = 0
                    if da or dv:
                        out.append((_DELIVER, uid, da, dv, arrive))
                    elif uid in kick2_unseen and uid not in early_addr:
                        # Reference quirk, faithfully replayed: a kick
                        # delivery reaching a constant-address memory op
                        # before its kick entry finds pending_addr == 0
                        # and triggers an early addr notify (the kick
                        # entry then schedules a second one).  A real
                        # _DELIVER replays this by itself; a fully
                        # elided one needs the explicit action.
                        out.append((_NOTIFY_K2, uid))
                    if uid in kick2_unseen:
                        early_addr.add(uid)
                    # Final arrival: notify in _deliver's branch order
                    # (addr before value).
                    if at is not None and at[0] == 0:
                        out.append((_NOTIFY_ADDR, uid, at[1]))
                    if vt is not None and vt[0] == 0:
                        out.append((_NOTIFY_VALUE, uid, vt[1]))

        # Kick phase, replicating the reference kick loop's exact order:
        # sources complete (and deliver) synchronously, constant-address
        # memory notifies are queued, zero-input computes start.
        kick2_unseen = {
            op.op_id for op, _pa, _pv, k in self._op_init if k == 2
        }
        early_addr: Set[int] = set()
        for op, _pa, _pv, kick in self._op_init:
            if kick == 0:
                continue
            if kick == 1:  # INPUT/CONST source — always static
                value_order.append(op)
                run_times[op.op_id] = (0, 0)
                finish(op, 0, kick_actions)
            elif kick == 2:  # dynamic: constant-address memory op
                kick2_unseen.discard(op.op_id)
                kick_actions.append((_KICK2, op.op_id))
            else:  # kick == 3: zero-input compute — always static
                start_compute(op, 0, kick_actions)

        while mini:
            done, _, idx = heapq.heappop(mini)
            _, actions, op = events[idx]
            value_order.append(op)
            finish(op, done, actions)

        # Value liveness: a static value matters only if a dynamic op
        # reads it — dynamic computes read all their inputs, stores read
        # their value slot (directly and via forwarding); addresses come
        # from addr_of, never from the value network.
        live: Set[int] = set()
        work: List[int] = []
        for op in self._ops:
            if op.op_id in static_ids or op.op_id in tails:
                continue
            kind = kind_of[op.op_id]
            roots = [op.inputs[-1]] if kind == _STORE else (
                [] if kind == _LOAD else op.inputs
            )
            for src in roots:
                if src in static_ids and src not in live:
                    live.add(src)
                    work.append(src)
        while work:
            for src in by_id[work.pop()].inputs:  # inputs of static are static
                if src not in live:
                    live.add(src)
                    work.append(src)

        value_program: List[tuple] = []
        for op in value_order:
            oid = op.op_id
            if oid not in live:
                continue
            if op.opcode is Opcode.CONST:
                value_program.append((_VAL_CONST, oid, mix(0xC0, oid), ()))
            elif op.opcode is Opcode.INPUT:
                value_program.append((_VAL_INPUT, oid, 0, ()))
            else:
                _lat, _ev, mix_id, inputs = exec_plan[oid]
                value_program.append((_VAL_MIX, oid, mix_id, inputs))

        # Elide events whose action list does nothing observable: no
        # dynamic delivery and no (transitively useful) push.  A push
        # target always has a larger index than its pusher, so one
        # reverse sweep settles usefulness.
        useful = [False] * len(events)
        for idx in range(len(events) - 1, -1, -1):
            _, actions, _ = events[idx]
            actions[:] = [
                a for a in actions if a[0] != _PUSH or useful[a[2]]
            ]
            useful[idx] = bool(actions)
        kick_actions[:] = [
            a for a in kick_actions if a[0] != _PUSH or useful[a[2]]
        ]

        # Bulk energy for the whole region, static and dynamic alike:
        # every compute op starts once and every op finishes (charging
        # its fanout's network hops) once per invocation.
        alu_events = [
            exec_plan[op.op_id][1] for op, _pa, _pv, kick in self._op_init
            if kick != 1 and kind_of[op.op_id] == _COMPUTE
        ]

        # Tail program, in topological order: static inputs fold into
        # one constant arrival offset (floor 0: inputs_time starts at
        # t0); dynamic inputs are read after the drain.
        route_latency = self.placement.route_latency
        tail_program: List[tuple] = []
        for op in self._ops:
            oid = op.op_id
            if oid not in tails:
                continue
            const = 0
            srcs = []
            for src_id in dict.fromkeys(op.inputs):
                route = route_latency(src_id, oid)
                if src_id in static_ids:
                    const = max(const, run_times[src_id][1] + route)
                else:
                    srcs.append((src_id, route, src_id in tails))
            tail_program.append((oid, exec_plan[oid][0], const, tuple(srcs)))

        tpl = _Template()
        tpl.kick_actions = kick_actions
        tpl.event_actions = [e[1] for e in events]
        tpl.n_alu_fp = alu_events.count(EnergyEvent.ALU_FP)
        tpl.n_alu_int = len(alu_events) - tpl.n_alu_fp
        tpl.net_charge = sum(
            net for plan in plans.values() for _u, _a, _v, net, _r in plan
        )
        tpl.static_end = static_end
        tpl.value_program = value_program
        tpl.value_cache = {}
        tpl.static_ids = frozenset(static_ids)
        tpl.static_times = [(oid, s, c) for oid, (s, c) in run_times.items()]
        tpl.tail_ids = frozenset(tails)
        tpl.tail_program = tail_program
        return tpl

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _attach_template(self) -> _Template:
        """Fetch (or capture) this region's template and bind it.

        Capture depends only on the placement, the ops' ids, opcodes and
        inputs, and the engine config — never on the backend, the
        hierarchy, the invocation stream or the graph's MDEs — so it is
        cached on the placement object under the op signature.  In a
        sweep, every system simulating one workload shares the
        placement, and the bare and the compiled graph have the same
        ops, so they all share one capture.
        """
        cache = self.placement.__dict__.setdefault("_fast_templates", {})
        key = (
            tuple((op.op_id, op.opcode.index, op.inputs) for op in self._ops),
            dataclasses.astuple(self.config),
        )
        tpl = cache.get(key)
        if tpl is None:
            tpl = cache[key] = self._build_template()
        self._template = tpl

        op_of = {op.op_id: op for op in self._ops}

        def bind(actions: list) -> list:
            return [
                a if a[0] == _PUSH else (a[0], op_of[a[1]]) + a[2:]
                for a in actions
            ]

        self._kick_actions = bind(tpl.kick_actions)
        self._fires = [
            partial(self._fire, bind(actions)) if actions else None
            for actions in tpl.event_actions
        ]
        static = tpl.static_ids
        tails = tpl.tail_ids
        self._dyn_init = [
            (op, pa, pv) for op, pa, pv, _ in self._op_init
            if op.op_id not in static and op.op_id not in tails
        ]
        self._dyn_ops = [op for op, _pa, _pv in self._dyn_init]
        self._live_plans = {
            op.op_id: [
                p for p in self._plans[op.op_id] if p[0].op_id not in tails
            ]
            for op in self._dyn_ops
        }
        self._static_times = [
            (op_of[oid], s, c) for oid, s, c in tpl.static_times
        ]
        return tpl

    def _fire(self, actions: list) -> None:
        """Run one template event: push later template events and
        deliver operands to dynamic consumers, in captured order."""
        t0 = self._t0
        push = self._queue.push
        deliver = self._deliver
        fires = self._fires
        backend = self.backend
        for a in actions:
            kind = a[0]
            if kind == _PUSH:
                push(t0 + a[1], fires[a[2]])
            elif kind == _DELIVER:
                deliver(a[1], a[2], a[3], t0 + a[4])
            elif kind == _NOTIFY_ADDR:
                backend.on_addr_ready(a[1], t0 + a[2])
            else:
                backend.on_value_ready(a[1], t0 + a[2])

    def _run_invocation(self, inv, t0, env):
        tpl = self._template
        if tpl is None:
            tpl = self._attach_template()
        self._inv_index = inv
        self._t0 = t0
        # Every static completion the reference engine would fold into
        # _inv_end is known from the template; dynamic completions max
        # over it during the drain as usual.
        self._inv_end = t0 + tpl.static_end
        self.values.clear()
        if self._addr_streams is not None:
            self.addr_of = self._addr_streams[inv]
        else:
            self.addr_of = {
                op.op_id: (op.addr.evaluate(env), op.addr.width)
                for op in self._mem_ops
            }
        run_map = self._run
        run_map.clear()
        for op, pa, pv in self._dyn_init:
            run_map[op.op_id] = _OpRun(pa, pv, t0)
        if self.recorder is not None:
            # Timeline capture walks every op's run state; static ops
            # get theirs prefilled from the template offsets.
            for op, start_off, complete_off in self._static_times:
                state = _OpRun(0, 0, t0)
                state.completed = True
                state.start_time = t0 + start_off
                state.complete_time = t0 + complete_off
                run_map[op.op_id] = state

        # Live static values depend only on (op signature, inv) — INPUT
        # sources mix the invocation index, never the environment — so
        # the template memoizes them: in a sweep, the systems sharing
        # this template replay each invocation's values with one dict
        # copy.
        vals = tpl.value_cache.get(inv)
        if vals is None:
            vals = {}
            for kind, oid, aux, inputs in tpl.value_program:
                if kind == _VAL_MIX:
                    vals[oid] = mix(aux, *(vals[i] for i in inputs))
                elif kind == _VAL_CONST:
                    vals[oid] = aux
                else:
                    vals[oid] = mix(0x1F, oid, inv)
            tpl.value_cache[inv] = vals
        self.values.update(vals)

        # Bulk energy: the same ALU and network event counts the
        # reference engine charges one call at a time (ledger order is
        # fixed at construction, so charge order never shows in the
        # pickled result).
        energy = self.energy
        if tpl.n_alu_int:
            energy.charge(EnergyEvent.ALU_INT, tpl.n_alu_int)
        if tpl.n_alu_fp:
            energy.charge(EnergyEvent.ALU_FP, tpl.n_alu_fp)
        if tpl.net_charge:
            energy.charge(EnergyEvent.NET_LINK, tpl.net_charge)

        self.backend.begin_invocation(inv, t0, self.addr_of)

        push = self._queue.push
        deliver = self._deliver
        fires = self._fires
        backend = self.backend
        for a in self._kick_actions:
            kind = a[0]
            if kind == _PUSH:
                push(t0 + a[1], fires[a[2]])
            elif kind == _DELIVER:
                deliver(a[1], a[2], a[3], t0 + a[4])
            elif kind == _NOTIFY_ADDR:
                backend.on_addr_ready(a[1], t0 + a[2])
            elif kind == _NOTIFY_VALUE:
                backend.on_value_ready(a[1], t0 + a[2])
            elif kind == _NOTIFY_K2:
                op = a[1]
                run_map[op.op_id].addr_notified = True
                backend.on_addr_ready(op, t0)
            else:
                op = a[1]
                run_map[op.op_id].addr_notified = True
                push(t0, self._make_addr_notify(op, t0))

        self._queue.drain()
        self._check_completed(self._dyn_ops)
        if tpl.tail_program:
            self._settle_tails(tpl.tail_program, t0)
        self.backend.end_invocation()
        if self.recorder is not None:
            self.recorder.capture(self.graph, inv, t0, self._inv_end, self._run)
        return self._inv_end

    def _settle_tails(self, tail_program: List[tuple], t0: int) -> None:
        """Fold each dead tail's completion into ``_inv_end``, in closed
        form: ``done = latency + max(t0 + const, input done + route)``."""
        run_map = self._run
        record = self.recorder is not None
        done_of: Dict[int, int] = {}
        end = self._inv_end
        for oid, latency, const, srcs in tail_program:
            start = t0 + const
            for src, route, src_is_tail in srcs:
                t = (
                    done_of[src] if src_is_tail else run_map[src].complete_time
                ) + route
                if t > start:
                    start = t
            done = done_of[oid] = start + latency
            if done > end:
                end = done
            if record:
                state = run_map[oid] = _OpRun(0, 0, t0)
                state.completed = True
                state.start_time = start
                state.complete_time = done
        self._inv_end = end
