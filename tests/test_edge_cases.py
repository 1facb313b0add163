"""Edge-case tests across modules: operand sharing, caching, helpers."""

import pytest

from repro.compiler import AliasLabel, compile_region
from repro.ir import (
    AffineExpr,
    IVar,
    MemObject,
    Opcode,
    RegionBuilder,
)
from repro.sim import golden_execute
from repro.sim.backends.base import ranges_exact, ranges_overlap
from repro.workloads import BenchmarkSpec, Mechanism, build_workload
from tests.conftest import build_simple_region, make_engine


class TestRangeHelpers:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((0, 8), (0, 8), True),
            ((0, 8), (8, 8), False),
            ((0, 8), (7, 8), True),
            ((4, 4), (0, 8), True),
            ((0, 4), (4, 4), False),
            ((100, 1), (100, 1), True),
        ],
    )
    def test_overlap(self, a, b, expected):
        assert ranges_overlap(a, b) is expected
        assert ranges_overlap(b, a) is expected  # symmetric

    def test_exact(self):
        assert ranges_exact((0, 8), (0, 8))
        assert not ranges_exact((0, 8), (0, 4))
        assert not ranges_exact((0, 8), (8, 8))


class TestEngineOperandSharing:
    def test_store_addr_and_value_share_producer(self):
        """One producer feeding both a store's address chain and its
        value operand must deliver to both positions."""
        a = MemObject("a", 4096, base_addr=0x1000)
        b = RegionBuilder()
        x = b.input("x")
        gep = b.gep(x)
        st = b.store(a, AffineExpr.constant(0), value=gep, inputs=[gep])
        g = b.build()
        engine = make_engine(g)
        result = engine.run([{}])
        assert engine.state_of(st.op_id).completed
        golden = golden_execute(g, [{}])
        assert golden.matches(result.load_values, result.memory_image)

    def test_same_producer_twice_in_compute(self):
        b = RegionBuilder()
        x = b.input("x")
        s = b.add(x, x)
        g = b.build()
        engine = make_engine(g)
        engine.run([{}])
        assert engine.state_of(s.op_id).completed

    def test_constant_address_load_fires_at_t0(self):
        a = MemObject("a", 4096, base_addr=0x1000)
        b = RegionBuilder()
        ld = b.load(a, AffineExpr.constant(0))
        g = b.build()
        engine = make_engine(g)
        result = engine.run([{}])
        assert (0, ld.op_id) in result.load_values

    def test_missing_env_variable_raises(self):
        g = build_simple_region()
        engine = make_engine(g)
        with pytest.raises(KeyError):
            engine.run([{}])  # 'i' unbound

    def test_run_result_helpers(self):
        g1 = build_simple_region()
        r1 = make_engine(g1).run([{"i": 0}])
        g2 = build_simple_region()
        r2 = make_engine(g2).run([{"i": 0}, {"i": 1}])
        assert r2.speedup_over(r1) < 1.0  # r2 ran longer
        assert r1.slowdown_pct_vs(r2) < 0
        assert r2.mean_invocation_cycles > 0


class TestBuilderCoverage:
    def test_all_compute_helpers(self):
        b = RegionBuilder()
        x, y = b.input("x"), b.input("y")
        ops = [
            b.add(x, y), b.sub(x, y), b.mul(x, y), b.shift(x, y),
            b.cmp(x, y), b.fadd(x, y), b.fsub(x, y), b.fmul(x, y),
            b.fdiv(x, y),
        ]
        p = b.select(ops[4], x, y)
        u = b.unop(Opcode.XOR, p)
        g = b.build()
        assert len(g) == 2 + len(ops) + 2

    def test_const_naming(self):
        b = RegionBuilder()
        c = b.const(42)
        assert c.name == "c42"


class TestMechanismIsolation:
    """Each mechanism, alone, produces its designed label signature."""

    def _spec(self, mechanism, **kw):
        defaults = dict(
            name=f"iso-{mechanism.value}", suite="test",
            n_ops=40, n_mem=8, mlp=8, store_frac=0.5,
            mechanism_mix={mechanism: 1.0},
        )
        defaults.update(kw)
        return BenchmarkSpec(**defaults)

    def test_distinct_all_no(self):
        w = build_workload(self._spec(Mechanism.DISTINCT))
        result = compile_region(w.graph)
        assert result.final_labels.count(AliasLabel.MAY) == 0
        assert result.final_labels.count(AliasLabel.MUST) == 0

    def test_strided_all_no(self):
        w = build_workload(self._spec(Mechanism.STRIDED))
        result = compile_region(w.graph)
        assert result.final_labels.count(AliasLabel.MAY) == 0

    def test_param_resolvable_stage2_resolves(self):
        w = build_workload(self._spec(Mechanism.PARAM_RESOLVABLE))
        result = compile_region(w.graph)
        assert result.stage1.count(AliasLabel.MAY) > 0
        assert result.final_labels.count(AliasLabel.MAY) == 0

    def test_param_opaque_stays_may(self):
        w = build_workload(self._spec(Mechanism.PARAM_OPAQUE))
        result = compile_region(w.graph)
        assert result.final_labels.count(AliasLabel.MAY) > 0
        # ... but runtime addresses never conflict (distinct objects)
        env = w.invocations(1)[0]
        mem = w.graph.memory_ops
        for i, a in enumerate(mem):
            for c in mem[i + 1 :]:
                assert a.addr.evaluate(env) != c.addr.evaluate(env)

    def test_multidim_stage4_resolves(self):
        w = build_workload(self._spec(Mechanism.MULTIDIM))
        result = compile_region(w.graph)
        assert result.stage1.count(AliasLabel.MAY) > 0
        assert result.final_labels.count(AliasLabel.MAY) == 0

    def test_indirect_stays_may_forever(self):
        w = build_workload(self._spec(Mechanism.INDIRECT, indirect_range=16))
        result = compile_region(w.graph)
        assert result.final_labels.count(AliasLabel.MAY) > 0


class TestRegionCaching:
    def test_workload_cache_reuses_instances(self):
        from repro.experiments.regions import clear_caches, workload_for
        from repro.workloads import get_spec

        clear_caches()
        a = workload_for(get_spec("gzip"))
        b = workload_for(get_spec("gzip"))
        assert a is b
        clear_caches()
        c = workload_for(get_spec("gzip"))
        assert c is not a

    def test_compiled_region_keyed_by_config(self):
        from repro.compiler import PipelineConfig
        from repro.experiments.regions import compiled_region
        from repro.workloads import get_spec

        full = compiled_region(get_spec("parser"))
        base = compiled_region(
            get_spec("parser"), config=PipelineConfig.baseline_compiler()
        )
        assert full is compiled_region(get_spec("parser"))
        assert full is not base

    def test_compile_only_leaves_shared_graph_clean(self):
        from repro.experiments.regions import compiled_region, workload_for
        from repro.workloads import get_spec

        w = workload_for(get_spec("soplex"))
        w.graph.clear_mdes()
        compiled_region(get_spec("soplex"))
        assert w.graph.mdes == []  # apply_mdes=False in the cache path


class TestSpecValidation:
    def test_zero_mem_spec_needs_no_mlp(self):
        spec = BenchmarkSpec(
            name="nomem", suite="t", n_ops=10, n_mem=0, mlp=1
        )
        w = build_workload(spec)
        assert len(w.graph.memory_ops) == 0

    def test_mechanism_counts_empty(self):
        spec = BenchmarkSpec(name="x", suite="t", n_ops=10, n_mem=4, mlp=2)
        assert spec.mechanism_counts(0) == {Mechanism.DISTINCT: 0}

    def test_mem_fraction(self):
        spec = BenchmarkSpec(name="x", suite="t", n_ops=10, n_mem=4, mlp=2)
        assert spec.mem_fraction == pytest.approx(0.4)
