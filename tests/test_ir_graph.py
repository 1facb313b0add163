"""Unit tests for the region graph, builder, opcodes, and operations."""

import pickle

import pytest

from repro.ir import (
    AddressExpr,
    AffineExpr,
    DFGraph,
    IVar,
    MDEKind,
    MemObject,
    MemoryDependencyEdge,
    Opcode,
    Operation,
    RegionBuilder,
    is_compute,
    is_fp,
    is_memory,
    latency_of,
)
from repro.ir.graph import GraphError


class TestOpcodes:
    def test_every_opcode_has_a_latency(self):
        for opcode in Opcode:
            assert latency_of(opcode) >= 0

    def test_fp_classification(self):
        assert is_fp(Opcode.FADD)
        assert is_fp(Opcode.FDIV)
        assert not is_fp(Opcode.ADD)
        assert not is_fp(Opcode.LOAD)

    def test_memory_classification(self):
        assert is_memory(Opcode.LOAD)
        assert is_memory(Opcode.STORE)
        assert not is_memory(Opcode.SPAD_LOAD)
        assert not is_memory(Opcode.GEP)

    def test_compute_classification(self):
        assert is_compute(Opcode.ADD)
        assert is_compute(Opcode.GEP)
        assert is_compute(Opcode.SPAD_STORE)
        assert not is_compute(Opcode.LOAD)
        assert not is_compute(Opcode.INPUT)
        assert not is_compute(Opcode.CONST)

    def test_fp_slower_than_int(self):
        assert latency_of(Opcode.FADD) > latency_of(Opcode.ADD)
        assert latency_of(Opcode.FDIV) > latency_of(Opcode.FMUL)


class TestOperation:
    def test_memory_op_requires_address(self):
        with pytest.raises(ValueError):
            Operation(0, Opcode.LOAD)

    def test_non_memory_op_rejects_address(self):
        obj = MemObject("a", 64)
        addr_expr = AffineExpr.constant(0)
        from repro.ir.address import AddressExpr

        with pytest.raises(ValueError):
            Operation(0, Opcode.ADD, addr=AddressExpr(obj, addr_expr))

    def test_kind_properties(self, obj_a):
        from repro.ir.address import AddressExpr

        ld = Operation(0, Opcode.LOAD, addr=AddressExpr(obj_a, AffineExpr.constant(0)))
        assert ld.is_load and ld.is_memory and not ld.is_store


class TestBuilderAndGraph:
    def test_program_order_ids(self, simple_region):
        ids = [op.op_id for op in simple_region.ops]
        assert ids == sorted(ids) == list(range(len(simple_region)))

    def test_memory_ops_listed_in_order(self, simple_region):
        mem = simple_region.memory_ops
        assert [op.op_id for op in mem] == sorted(op.op_id for op in mem)
        assert len(simple_region.loads) == 2
        assert len(simple_region.stores) == 1

    def test_memory_rank(self, simple_region):
        rank = simple_region.memory_rank()
        assert sorted(rank.values()) == list(range(len(simple_region.memory_ops)))

    def test_users_of(self, simple_region):
        ld1 = simple_region.loads[0]
        users = simple_region.users_of(ld1.op_id)
        assert len(users) == 1  # the add

    def test_duplicate_op_id_rejected(self):
        g = DFGraph()
        g.add_op(Operation(0, Opcode.INPUT))
        with pytest.raises(GraphError):
            g.add_op(Operation(0, Opcode.INPUT))

    def test_forward_reference_rejected(self):
        g = DFGraph()
        with pytest.raises(GraphError):
            g.add_op(Operation(0, Opcode.ADD, inputs=(1, 2)))

    def test_younger_input_rejected(self):
        g = DFGraph()
        g.add_op(Operation(0, Opcode.INPUT))
        with pytest.raises(GraphError):
            g.add_op(Operation(1, Opcode.ADD, inputs=(1, 0)))

    def test_mde_endpoints_must_be_memory(self, simple_region):
        add_op = next(op for op in simple_region.ops if op.opcode is Opcode.ADD)
        ld = simple_region.loads[0]
        with pytest.raises(GraphError):
            simple_region.add_mde(
                MemoryDependencyEdge(ld.op_id, add_op.op_id, MDEKind.ORDER)
            )

    def test_mde_direction_enforced(self):
        with pytest.raises(ValueError):
            MemoryDependencyEdge(5, 3, MDEKind.ORDER)

    def test_duplicate_mde_detected_by_validate(self, simple_region):
        ld = simple_region.loads[0]
        st = simple_region.stores[0]
        edge = MemoryDependencyEdge(ld.op_id, st.op_id, MDEKind.ORDER)
        simple_region.add_mde(edge)
        simple_region.add_mde(edge)
        with pytest.raises(GraphError):
            simple_region.validate()

    def test_replace_and_clear_mdes(self, simple_region):
        ld = simple_region.loads[0]
        st = simple_region.stores[0]
        simple_region.replace_mdes(
            [MemoryDependencyEdge(ld.op_id, st.op_id, MDEKind.MAY)]
        )
        assert len(simple_region.mdes) == 1
        simple_region.clear_mdes()
        assert simple_region.mdes == []

    def test_mdes_into_and_out_of(self, simple_region):
        ld = simple_region.loads[0]
        st = simple_region.stores[0]
        edge = MemoryDependencyEdge(ld.op_id, st.op_id, MDEKind.ORDER)
        simple_region.add_mde(edge)
        assert simple_region.mdes_into(st.op_id) == [edge]
        assert simple_region.mdes_out_of(ld.op_id) == [edge]
        assert simple_region.mdes_into(ld.op_id) == []


class TestProgramOrderViews:
    """``ops``/``memory_ops``/``loads``/``stores`` are served from one
    memo that only ``add_op`` drops."""

    @staticmethod
    def _views(graph):
        return (graph.ops, graph.memory_ops, graph.loads, graph.stores)

    @staticmethod
    def _next_id(graph):
        return max(op.op_id for op in graph.ops) + 1

    def test_op_added_after_a_query_is_seen(self, simple_region, obj_a):
        before = self._views(simple_region)
        n = self._next_id(simple_region)
        ld = simple_region.add_op(
            Operation(n, Opcode.LOAD, addr=AddressExpr(obj_a, AffineExpr.constant(0)))
        )
        st = simple_region.add_op(
            Operation(n + 1, Opcode.STORE, inputs=(n,),
                      addr=AddressExpr(obj_a, AffineExpr.constant(8)))
        )
        alu = simple_region.add_op(Operation(n + 2, Opcode.ADD, inputs=(n, n)))
        ops, memory, loads, stores = self._views(simple_region)
        assert ops == before[0] + [ld, st, alu]
        assert memory == before[1] + [ld, st]
        assert loads == before[2] + [ld]
        assert stores == before[3] + [st]
        assert list(simple_region) == ops
        assert simple_region.stats().n_mem == len(memory)

    def test_views_are_in_program_order_whatever_the_insertion_order(self, obj_a):
        graph = DFGraph("unordered")
        addr = AddressExpr(obj_a, AffineExpr.constant(0))
        graph.add_op(Operation(5, Opcode.LOAD, addr=addr))
        assert [op.op_id for op in graph.ops] == [5]
        graph.add_op(Operation(2, Opcode.LOAD, addr=addr))
        graph.add_op(Operation(3, Opcode.CONST))
        assert [op.op_id for op in graph.ops] == [2, 3, 5]
        assert [op.op_id for op in graph.memory_ops] == [2, 5]

    def test_mutating_a_returned_list_leaves_the_graph_unchanged(self, simple_region):
        before = self._views(simple_region)
        for view in self._views(simple_region):
            view.clear()
        simple_region.memory_ops.append(simple_region.ops[0])
        assert self._views(simple_region) == before

    def test_pickle_bytes_do_not_depend_on_queries(self, simple_region):
        graph = simple_region.clone()
        graph.add_op(Operation(self._next_id(graph), Opcode.CONST))  # memo dropped
        fresh = pickle.dumps(graph)
        self._views(graph)
        assert pickle.dumps(graph) == fresh
        assert pickle.dumps(graph.clone()) == fresh
        restored = pickle.loads(fresh)
        assert list(restored.__dict__) == ["name", "_ops", "_mdes", "_users"]
        assert restored.ops == graph.ops

    def test_clone_add_op_leaves_the_original_unchanged(self, simple_region):
        before = self._views(simple_region)
        clone = simple_region.clone()
        n = self._next_id(clone)
        added = clone.add_op(Operation(n, Opcode.CONST))
        assert self._views(simple_region) == before
        assert clone.ops == before[0] + [added]
        assert self._views(simple_region.clone()) == before


class TestReachability:
    def test_data_reachability_transitive(self, simple_region):
        reach = simple_region.data_reachability()
        ld1 = simple_region.loads[0]
        st = simple_region.stores[0]
        # store consumes the add which consumes the load
        assert st.op_id in reach[ld1.op_id]

    def test_data_reachability_no_back_edges(self, simple_region):
        reach = simple_region.data_reachability()
        for src, dests in reach.items():
            assert all(d > src for d in dests)

    def test_full_reachability_includes_mdes(self, may_region):
        st1 = may_region.stores[0]
        last = may_region.memory_ops[-1]
        base = may_region.full_reachability()
        assert last.op_id not in base[st1.op_id]
        may_region.add_mde(
            MemoryDependencyEdge(st1.op_id, last.op_id, MDEKind.MAY)
        )
        extended = may_region.full_reachability()
        assert last.op_id in extended[st1.op_id]

    def test_critical_path_positive(self, simple_region):
        assert simple_region.critical_path_length() >= 3

    def test_critical_path_grows_with_mdes(self, may_region):
        before = may_region.critical_path_length()
        mem = may_region.memory_ops
        may_region.add_mde(
            MemoryDependencyEdge(mem[0].op_id, mem[-1].op_id, MDEKind.ORDER)
        )
        assert may_region.critical_path_length() >= before


class TestStats:
    def test_stats_counts(self, simple_region):
        stats = simple_region.stats()
        assert stats.n_ops == len(simple_region)
        assert stats.n_mem == 3
        assert stats.n_loads == 2
        assert stats.n_stores == 1
        assert 0 < stats.mem_fraction < 1

    def test_builder_store_value_is_last_input(self, simple_region):
        st = simple_region.stores[0]
        add_op = next(op for op in simple_region.ops if op.opcode is Opcode.ADD)
        assert st.inputs[-1] == add_op.op_id
