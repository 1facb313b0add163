"""Unit tests for value semantics and the program-order oracle."""

import pytest

from repro.ir import AffineExpr, IVar, MemObject, RegionBuilder
from repro.sim.oracle import golden_execute
from repro.sim.values import ValueMemory, forwarded_value, mix, mix_on


class TestMix:
    def test_deterministic(self):
        assert mix(1, 2, 3) == mix(1, 2, 3)

    def test_order_sensitive(self):
        assert mix(1, 2) != mix(2, 1)

    def test_arity_sensitive(self):
        assert mix(1) != mix(1, 0)

    def test_64_bit(self):
        assert 0 <= mix(12345) < (1 << 64)

    def test_mix_on_continues_mix(self):
        assert mix_on(mix(7, 1 << 70), [3, 2**64 - 1]) == mix(7, 1 << 70, 3, 2**64 - 1)
        assert mix_on(mix(), []) == mix()


class TestValueMemory:
    def test_store_load_roundtrip(self):
        m = ValueMemory()
        m.store(100, 8, value=42)
        assert m.load(100, 8) == m.load(100, 8)

    def test_different_values_differ(self):
        m1, m2 = ValueMemory(), ValueMemory()
        m1.store(100, 8, 1)
        m2.store(100, 8, 2)
        assert m1.load(100, 8) != m2.load(100, 8)

    def test_partial_overlap_is_order_sensitive(self):
        m1, m2 = ValueMemory(), ValueMemory()
        m1.store(100, 8, 1)
        m1.store(104, 8, 2)
        m2.store(104, 8, 2)
        m2.store(100, 8, 1)
        assert m1.load(100, 8) != m2.load(100, 8)

    def test_uninitialized_reads_are_stable(self):
        m = ValueMemory()
        assert m.load(0, 8) == ValueMemory().load(0, 8)

    def test_snapshot_canonical(self):
        m1, m2 = ValueMemory(), ValueMemory()
        m1.store(0, 8, 7)
        m1.store(64, 8, 9)
        m2.store(64, 8, 9)
        m2.store(0, 8, 7)
        assert m1.snapshot() == m2.snapshot()

    def test_forwarded_value_matches_store_then_load(self):
        m = ValueMemory()
        m.store(256, 8, value=77)
        assert forwarded_value(77, 8) == m.load(256, 8)

    def test_tokens_are_defined_by_mix(self):
        # A store of v writes mix(v, k) to byte k; a load mixes the
        # tokens it covers, 0 for unwritten bytes.
        m = ValueMemory()
        m.store(100, 8, 5)
        m.store(104, 4, 2**64 - 1)
        tokens = [mix(5, k) for k in range(4)] + [mix(2**64 - 1, k) for k in range(4)]
        assert [m._bytes[100 + k] for k in range(8)] == tokens
        assert m.load(102, 8) == mix(*tokens[2:], 0, 0)

    def test_len_counts_bytes(self):
        m = ValueMemory()
        m.store(0, 8, 1)
        assert len(m) == 8


class TestGoldenOracle:
    def test_load_sees_older_store(self):
        a = MemObject("a", 4096)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.constant(0), value=x)
        ld = b.load(a, AffineExpr.constant(0))
        g = b.build()
        result = golden_execute(g, [{}])
        # The load's value equals storing x's value then loading it.
        assert result.load_values[(0, ld.op_id)] == forwarded_value(
            mix(0x1F, x.op_id, 0), 8
        )

    def test_invocations_accumulate_memory(self):
        a = MemObject("a", 4096)
        iv = IVar("i", 4)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.of(ivs={iv: 8}), value=x)
        g = b.build()
        result = golden_execute(g, [{"i": k} for k in range(4)])
        assert len(result.memory_image) == 4 * 8  # four 8-byte stores

    def test_input_values_vary_per_invocation(self):
        a = MemObject("a", 4096)
        b = RegionBuilder()
        x = b.input("x")
        st = b.store(a, AffineExpr.constant(0), value=x)
        ld = b.load(a, AffineExpr.constant(0))
        g = b.build()
        result = golden_execute(g, [{}, {}])
        assert result.load_values[(0, ld.op_id)] != result.load_values[(1, ld.op_id)]

    def test_matches_api(self):
        g_result = golden_execute(
            RegionBuilder().build(validate=False), []
        )
        assert g_result.matches({}, ())
        assert not g_result.matches({(0, 0): 1}, ())
