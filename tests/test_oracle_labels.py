"""Tests for the oracle (trace-derived) labeling."""

import pytest

from repro.compiler import AliasLabel
from repro.compiler.oracle_labels import compile_with_oracle, oracle_matrix
from repro.ir import AffineExpr, MemObject, RegionBuilder, Sym
from repro.workloads import build_workload, get_spec


def sym_region():
    a = MemObject("a", 4096, base_addr=0x1000)
    b = RegionBuilder()
    x = b.input("x")
    st = b.store(a, AffineExpr.of(syms={Sym("s1"): 8}), value=x)
    ld = b.load(a, AffineExpr.of(syms={Sym("s2"): 8}))
    return b.build(), st, ld


class TestOracleMatrix:
    def test_never_conflicting_is_no(self):
        g, st, ld = sym_region()
        matrix, exact = oracle_matrix(g, [{"s1": 0, "s2": 5}, {"s1": 1, "s2": 6}])
        assert matrix.get(st.op_id, ld.op_id) is AliasLabel.NO
        assert not exact

    def test_sometimes_conflicting_is_must(self):
        g, st, ld = sym_region()
        matrix, exact = oracle_matrix(g, [{"s1": 0, "s2": 5}, {"s1": 5, "s2": 5}])
        assert matrix.get(st.op_id, ld.op_id) is AliasLabel.MUST
        assert (st.op_id, ld.op_id) not in exact  # not exact *every* time

    def test_always_exact_detected(self):
        g, st, ld = sym_region()
        matrix, exact = oracle_matrix(g, [{"s1": 3, "s2": 3}, {"s1": 7, "s2": 7}])
        assert matrix.get(st.op_id, ld.op_id) is AliasLabel.MUST
        assert (st.op_id, ld.op_id) in exact

    def test_empty_trace_all_no(self):
        g, st, ld = sym_region()
        matrix, _ = oracle_matrix(g, [])
        assert matrix.count(AliasLabel.MUST) == 0

    def test_compile_with_oracle_is_correct(self):
        from repro.cgra.placement import place_region
        from repro.memory import MemoryHierarchy
        from repro.sim import DataflowEngine, NachosSWBackend, golden_execute

        w = build_workload(get_spec("histogram"))
        envs = w.invocations(10)
        mdes = compile_with_oracle(w.graph, envs)
        assert w.graph.mdes == []  # returned, never installed
        engine = DataflowEngine(
            w.graph, place_region(w.graph), MemoryHierarchy(), NachosSWBackend(),
            mdes=mdes,
        )
        result = engine.run(envs)
        golden = golden_execute(w.graph, envs)
        assert golden.matches(result.load_values, result.memory_image)

    def test_oracle_never_worse_than_real_compiler_in_mdes(self):
        """The oracle enforces a subset of the real pipeline's relations:
        every oracle MUST pair is MAY or MUST for the real compiler."""
        from repro.compiler import compile_region

        w = build_workload(get_spec("soplex"))
        envs = w.invocations(8)
        matrix, _ = oracle_matrix(w.graph, envs)
        real = compile_region(w.graph, )
        for pair in matrix.pairs(AliasLabel.MUST):
            assert real.final_labels.get(*pair) is not AliasLabel.NO, pair
