"""Dataflow-graph intermediate representation for acceleration regions.

An acceleration region (the unit NACHOS operates on) is a branch-free
directed acyclic dataflow graph extracted from a hot program path, as
produced by a NEEDLE-style path extractor.  The IR captures:

* operations (:class:`~repro.ir.ops.Operation`) with opcodes, data inputs,
  and — for memory operations — a symbolic :class:`~repro.ir.address.AddressExpr`,
* plain data-dependency edges (implied by operation inputs),
* memory dependency edges (:class:`~repro.ir.graph.MemoryDependencyEdge`)
  inserted by the NACHOS compiler passes.

The IR is deliberately independent of both the compiler analyses
(:mod:`repro.compiler`) and the cycle simulator (:mod:`repro.sim`); those
layers consume it.
"""

from repro.ir.address import (
    AddressExpr,
    AffineExpr,
    IVar,
    MemObject,
    MemorySpace,
    PointerParam,
    Sym,
)
from repro.ir.graph import DFGraph, MDEKind, MemoryDependencyEdge
from repro.ir.builder import RegionBuilder
from repro.ir.opcodes import Opcode, is_compute, is_fp, is_memory, latency_of
from repro.ir.ops import Operation
from repro.ir.serialize import dump_graph, graph_from_dict, graph_to_dict, load_graph
from repro.ir.lint import lint_region
from repro.ir.dsl import DSLError, parse_region

__all__ = [
    "AddressExpr",
    "AffineExpr",
    "DFGraph",
    "IVar",
    "MDEKind",
    "MemObject",
    "MemorySpace",
    "DSLError",
    "MemoryDependencyEdge",
    "Opcode",
    "parse_region",
    "Operation",
    "PointerParam",
    "RegionBuilder",
    "Sym",
    "dump_graph",
    "graph_from_dict",
    "graph_to_dict",
    "lint_region",
    "is_compute",
    "is_fp",
    "is_memory",
    "latency_of",
    "load_graph",
]
