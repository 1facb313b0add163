"""White-box tests for backend internals (check scheduling, wait-lists)."""

import pytest

from repro.cgra.placement import place_region
from repro.compiler import compile_region
from repro.ir import AffineExpr, MemObject, RegionBuilder, Sym
from repro.memory import MemoryHierarchy
from repro.sim import DataflowEngine, NachosBackend, golden_execute


def two_may_region():
    tab = MemObject("t", 4096, base_addr=0x1000)
    b = RegionBuilder()
    x = b.input("x")
    st = b.store(tab, AffineExpr.of(syms={Sym("s0"): 8}), value=x)
    ld = b.load(tab, AffineExpr.of(syms={Sym("sl"): 8}))
    g = b.build()
    compile_region(g)
    return g, st, ld


def run(g, env_list, backend=None):
    backend = backend or NachosBackend()
    engine = DataflowEngine(g, place_region(g), MemoryHierarchy(), backend)
    return engine.run(env_list), backend, engine


class TestComparatorInternals:
    def test_check_deduplicated_per_pair(self):
        g, st, ld = two_may_region()
        result, backend, _ = run(g, [{"s0": 0, "sl": 5}])
        # Exactly one check per MAY edge per invocation.
        assert result.backend_stats.comparator_checks == len(g.mdes)

    def test_no_check_after_completion_resolution(self):
        """A parent completing before the younger op's address is even
        computed resolves the edge without comparator energy."""
        tab = MemObject("t", 4096, base_addr=0x1000)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(tab, AffineExpr.constant(0), value=x)
        slow = x
        for _ in range(60):
            slow = b.fdiv(slow, x)
        gep = b.gep(slow)
        ld = b.load(tab, AffineExpr.of(syms={Sym("sl"): 8}), inputs=[gep])
        g = b.build()
        compile_region(g)
        result, backend, _ = run(g, [{"sl": 4}])
        assert result.backend_stats.comparator_checks == 0
        assert result.backend_stats.order_waits == 0  # MAY, not ORDER

    def test_state_reset_between_invocations(self):
        g, st, ld = two_may_region()
        envs = [{"s0": 0, "sl": 5}, {"s0": 5, "sl": 5}, {"s0": 1, "sl": 9}]
        result, backend, _ = run(g, envs)
        # One check per invocation; the middle one conflicts.
        assert result.backend_stats.comparator_checks == 3
        assert result.backend_stats.comparator_conflicts == 1
        golden = golden_execute(g, envs)
        assert golden.matches(result.load_values, result.memory_image)

    def test_order_signal_latency_respected(self):
        from repro.sim.config import EngineConfig

        def cycles_with(latency):
            tab = MemObject("t", 4096, base_addr=0x1000)
            b = RegionBuilder()
            x = b.input("x")
            st = b.store(tab, AffineExpr.constant(0), value=x)
            ld = b.load(tab, AffineExpr.constant(4))  # partial MUST->ORDER
            use = b.add(ld, x)
            g = b.build()
            compile_region(g)
            from repro.sim import NachosSWBackend

            engine = DataflowEngine(
                g, place_region(g), MemoryHierarchy(), NachosSWBackend(),
                config=EngineConfig(order_signal_latency=latency),
            )
            return engine.run([{}]).cycles

        assert cycles_with(8) > cycles_with(1)

    def test_forward_latency_respected(self):
        from repro.sim.config import EngineConfig
        from repro.sim import NachosSWBackend, TimelineRecorder

        def load_completion(latency):
            a = MemObject("a", 4096, base_addr=0x1000)
            b = RegionBuilder()
            x = b.input("x")
            st = b.store(a, AffineExpr.constant(0), value=x)
            ld = b.load(a, AffineExpr.constant(0))
            use = b.add(ld, x)
            g = b.build()
            compile_region(g)
            recorder = TimelineRecorder()
            engine = DataflowEngine(
                g, place_region(g), MemoryHierarchy(), NachosSWBackend(),
                config=EngineConfig(forward_latency=latency),
                recorder=recorder,
            )
            engine.run([{}])
            return recorder.invocations[0].completion_of(ld.op_id)

        # The forwarded load (not the total: the store's cold miss
        # dominates the invocation end) completes later with a slower
        # forward path.
        assert load_completion(10) == load_completion(1) + 9


class TestLSQInternals:
    def test_bank_partitioning_by_line(self):
        from repro.sim.backends.lsq import LSQConfig, OptLSQBackend

        backend = OptLSQBackend(LSQConfig(banks=4))
        assert backend._bank_of(0) == 0
        assert backend._bank_of(64) == 1
        assert backend._bank_of(64 * 5) == 1
        assert backend._bank_of(63) == 0  # same line, same bank

    def test_bloom_counting_semantics(self):
        from repro.sim.backends.lsq import _Bloom

        bloom = _Bloom(bits=64, hashes=2)
        assert not bloom.probe(10)
        bloom.insert(10)
        bloom.insert(10)
        assert bloom.probe(10)
        bloom.remove(10)
        assert bloom.probe(10)  # second copy still present
        bloom.remove(10)
        assert not bloom.probe(10)

    def test_bloom_signature_memo_matches_hashes(self):
        from repro.sim.backends.lsq import _Bloom
        from repro.sim.values import mix

        bloom = _Bloom(bits=1024, hashes=3)
        lines = [0, 1, 63, 64, 4096, 2**40 + 7]
        for _ in range(2):  # computed, then served from the memo
            for line in lines:
                assert bloom.signature(line) == tuple(
                    mix(line, k + 1) % 1024 for k in range(3)
                )
        bloom.insert(lines[0])
        bloom.clear()
        assert not bloom.probe(lines[0])
        assert set(bloom._signatures) == set(lines)  # outlives clear()

    def test_store_only_cam_scan_matches_full_inflight_scan(self):
        """A load's CAM search over the in-flight stores alone finds the
        same conflicts, in the same order, as the full in-flight scan
        with its age and LD-LD filters."""
        from repro.sim.backends.base import ranges_overlap
        from repro.sim.backends.lsq import OptLSQBackend
        from repro.verify.fuzz import build_graph, generate_spec

        checked = []

        class Checking(OptLSQBackend):
            def _issue(self, oid, t):
                op = self.graph.op(oid)
                addr_range = self._addr_of[oid]
                rank = {o: i for i, o in enumerate(self._order)}
                full = [
                    other
                    for other, other_range in self._inflight.items()
                    if other != oid
                    and rank[other] < rank[oid]
                    and (op.is_store or self.graph.op(other).is_store)
                    and ranges_overlap(other_range, addr_range)
                ]
                got = self._cam_conflicts(op.is_store, *addr_range)
                checked.append((op.is_store, full, got))
                super()._issue(oid, t)

        for index in range(60):
            spec = generate_spec(0, index)
            g = build_graph(spec)
            g.clear_mdes()
            engine = DataflowEngine(g, place_region(g), MemoryHierarchy(), Checking())
            engine.run(spec.env_dicts())
        assert all(full == got for _, full, got in checked)
        assert any(len(full) > 1 for is_store, full, _ in checked if is_store)
        assert any(full for is_store, full, _ in checked if not is_store)

    def test_issue_slot_in_order_monotonic(self):
        from repro.sim.backends.lsq import LSQConfig, OptLSQBackend

        backend = OptLSQBackend(LSQConfig(banks=2, issue_width=2))
        backend._slot_time = 0
        backend._bank_slot = {}
        t1 = backend._alloc_slot(5, bank=0)
        t2 = backend._alloc_slot(3, bank=1)  # ready earlier, issues later
        assert t2 >= t1

    def test_per_bank_port_limit(self):
        from repro.sim.backends.lsq import LSQConfig, OptLSQBackend

        backend = OptLSQBackend(LSQConfig(banks=1, issue_width=2))
        backend._slot_time = 0
        backend._bank_slot = {}
        times = [backend._alloc_slot(0, bank=0) for _ in range(4)]
        # Two per cycle: 0, 0, 1, 1.
        assert times == [0, 0, 1, 1]

    def test_bloom_remove_before_insert_is_harmless(self):
        """Removing an address that was never inserted (or whose counter
        already drained) must not raise and must not corrupt counts for
        later inserts sharing the same buckets."""
        from repro.sim.backends.lsq import _Bloom

        bloom = _Bloom(bits=64, hashes=2)
        bloom.remove(10)  # regression: used to KeyError on missing bucket
        assert not bloom.probe(10)
        bloom.insert(10)
        assert bloom.probe(10)
        bloom.remove(10)
        bloom.remove(10)  # second drain of the same address
        assert not bloom.probe(10)
        bloom.insert(10)
        assert bloom.probe(10)  # counters did not go negative

    def test_maybe_execute_store_honors_now(self):
        """A store released by a conflicting access's completion must not
        issue before that completion (regression: ``now`` was dropped from
        the issue-time max, so stores whose ``_resume_time`` had not been
        refreshed issued at their stale ready time)."""
        from repro.sim.backends.lsq import LSQConfig, OptLSQBackend

        a = MemObject("a", 4096, base_addr=0x1000)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.constant(0), value=x)
        g = b.build()
        g.clear_mdes()

        issued = []

        class FakeEngine:
            def do_store(self, op, t):
                issued.append((op.op_id, t))

            def schedule(self, t, fn):
                pass

        backend = OptLSQBackend(LSQConfig())
        backend.engine = FakeEngine()
        backend.graph = g
        oid = st.op_id
        backend._store_waits[oid] = set()
        backend._issue_time[oid] = 0
        backend._value_ready[oid] = 0
        backend._maybe_execute_store(oid, now=42)
        assert issued == [(oid, 42 + backend.config.pipeline_penalty)]


class TestSpecLSQInternals:
    def test_store_observed_at_exact_speculation_cycle(self):
        """The engine publishes a store draining at cycle T before a read
        scheduled at T runs, so completion == t_spec is *observed*, not a
        violation (regression: strict `<` forced a spurious replay)."""
        from repro.sim.backends.spec_lsq import SpecLSQBackend

        backend = SpecLSQBackend()
        backend._completed = {7: 10}
        assert backend._store_observed_by(7, 10)
        assert backend._store_observed_by(7, 11)
        assert not backend._store_observed_by(7, 9)
        assert not backend._store_observed_by(8, 10)  # never completed
