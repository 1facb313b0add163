"""Unit tests for the dataflow execution engine."""

import pytest

from repro.cgra.placement import place_region
from repro.energy.config import EnergyEvent
from repro.ir import AffineExpr, IVar, MemObject, Opcode, RegionBuilder
from repro.memory import MemoryHierarchy
from repro.sim import DataflowEngine, FastEngine, NachosSWBackend, golden_execute
from tests.conftest import build_simple_region, make_engine


class TestBasicExecution:
    def test_empty_invocations(self, simple_region):
        eng = make_engine(simple_region)
        result = eng.run([])
        assert result.cycles == 0
        assert result.invocations == 0

    def test_single_invocation_completes_all_ops(self, simple_region):
        eng = make_engine(simple_region)
        result = eng.run([{"i": 0}])
        assert result.invocations == 1
        assert result.cycles > 0
        for op in simple_region.ops:
            assert eng.state_of(op.op_id).completed

    def test_cycles_accumulate_across_invocations(self, simple_region):
        one = make_engine(build_simple_region()).run([{"i": 0}])
        two = make_engine(build_simple_region()).run([{"i": 0}, {"i": 1}])
        assert two.cycles > one.cycles
        assert len(two.per_invocation_cycles) == 2

    def test_matches_oracle(self, simple_region):
        envs = [{"i": k % 16} for k in range(8)]
        result = make_engine(simple_region).run(envs)
        golden = golden_execute(simple_region, envs)
        assert golden.matches(result.load_values, result.memory_image)

    def test_compute_latency_respected(self):
        b = RegionBuilder()
        x = b.input("x")
        y = b.input("y")
        f = b.fdiv(x, y)  # 12-cycle op
        g = b.build()
        result = make_engine(g).run([{}])
        assert result.per_invocation_cycles[0] >= 12

    def test_fp_charges_fp_energy(self):
        b = RegionBuilder()
        x = b.input("x")
        f = b.fadd(x, x)
        g = b.build()
        eng = make_engine(g)
        eng.run([{}])
        assert eng.energy.counts[EnergyEvent.ALU_FP] == 1
        assert eng.energy.counts[EnergyEvent.ALU_INT] == 0

    def test_zero_input_compute_fires(self):
        """Promoted scratchpad ops (no inputs) must execute."""
        from repro.ir.ops import Operation
        from repro.ir.graph import DFGraph

        g = DFGraph("z")
        g.add_op(Operation(0, Opcode.SPAD_LOAD))
        result_engine = make_engine(g)
        result_engine.run([{}])
        assert result_engine.state_of(0).completed
        assert result_engine.energy.counts[EnergyEvent.ALU_INT] == 1


class TestMemoryTiming:
    def test_load_miss_slower_than_hit(self):
        a = MemObject("a", 1 << 20, base_addr=0x10000)
        iv = IVar("i", 256)
        b = RegionBuilder()
        ld = b.load(a, AffineExpr.of(ivs={iv: 64}))
        g = b.build()
        eng = make_engine(g)
        result = eng.run([{"i": 0}, {"i": 0}])  # second touches same line
        assert result.per_invocation_cycles[0] > result.per_invocation_cycles[1]

    def test_load_energy_charged(self):
        g = build_simple_region()
        eng = make_engine(g)
        eng.run([{"i": 0}])
        assert eng.energy.counts[EnergyEvent.L1_READ] == 2
        assert eng.energy.counts[EnergyEvent.L1_WRITE] == 1

    def test_store_value_written_at_completion(self):
        a = MemObject("a", 4096, base_addr=0x1000)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.constant(0), value=x)
        g = b.build()
        eng = make_engine(g)
        result = eng.run([{}])
        assert len(result.memory_image) == 8

    def test_network_hops_charged_for_data_edges(self, simple_region):
        eng = make_engine(simple_region)
        eng.run([{"i": 0}])
        assert eng.energy.counts[EnergyEvent.NET_LINK] > 0

    def test_invocation_gap_respected(self):
        from repro.sim.config import EngineConfig

        g = build_simple_region()
        backend = NachosSWBackend()
        eng = DataflowEngine(
            g,
            place_region(g),
            MemoryHierarchy(),
            backend,
            config=EngineConfig(invocation_gap=10),
        )
        result = eng.run([{"i": 0}, {"i": 1}])
        assert result.cycles >= sum(result.per_invocation_cycles) + 10


class TestLoadValueCapture:
    def test_load_values_keyed_by_invocation(self, simple_region):
        eng = make_engine(simple_region)
        result = eng.run([{"i": 0}, {"i": 1}])
        loads = [op.op_id for op in simple_region.loads]
        for inv in range(2):
            for oid in loads:
                assert (inv, oid) in result.load_values


class TestCompletionInvariant:
    """Every op completes once per invocation, or the run raises."""

    class _DropsOneLoad(NachosSWBackend):
        """Never issues the victim load (it waits forever)."""

        def __init__(self, victim: int) -> None:
            super().__init__()
            self.victim = victim

        def on_addr_ready(self, op, t):
            if op.op_id != self.victim:
                super().on_addr_ready(op, t)

    @pytest.mark.parametrize(
        "engine_cls", [DataflowEngine, FastEngine], ids=["reference", "fast"]
    )
    def test_stuck_op_raises_naming_it(self, engine_cls):
        g = build_simple_region()
        g.clear_mdes()
        victim = g.memory_ops[0].op_id
        assert g.op(victim).is_load
        engine = engine_cls(
            g, place_region(g), MemoryHierarchy(), self._DropsOneLoad(victim)
        )
        with pytest.raises(RuntimeError, match=rf"op {victim} \(load\) never completed"):
            engine.run([{"i": 0}, {"i": 1}])
