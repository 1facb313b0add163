"""Opcodes for dataflow-region operations.

The CGRA in the paper maps one operation per functional unit (a 32x32 grid
of homogeneous units, Dyser-style).  We model the operation mix the paper's
regions exhibit: integer ALU ops, floating-point ops, address generation,
constants/region inputs, and the two memory operations.

Latencies follow the cycle model of the paper's framework (Figure 3 and the
Chainsaw simulator it builds on): single-cycle integer ops, multi-cycle
floating point, and memory latency determined by the cache hierarchy rather
than the opcode.
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """Operation kinds supported in an acceleration region."""

    # Region plumbing.
    INPUT = "input"      # live-in value (from the host CPU / scratchpad)
    CONST = "const"      # compile-time constant

    # Integer compute.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SHIFT = "shift"
    AND = "and"
    OR = "or"
    XOR = "xor"
    CMP = "cmp"
    SELECT = "select"    # predicated select (superblocks are branch-free)

    # Floating point compute.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"

    # Address generation (LLVM getelementptr analogue).
    GEP = "gep"

    # Scratchpad accesses: local data the compiler promoted out of the
    # coherent memory space (needs no disambiguation, 1-cycle access).
    SPAD_LOAD = "spad_load"
    SPAD_STORE = "spad_store"

    # Memory.
    LOAD = "load"
    STORE = "store"


#: Cycles each opcode occupies its functional unit.  Memory operations
#: list only the issue latency; completion is determined by the memory
#: hierarchy and the disambiguation backend.
_LATENCY = {
    Opcode.INPUT: 0,
    Opcode.CONST: 0,
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.MUL: 3,
    Opcode.SHIFT: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.CMP: 1,
    Opcode.SELECT: 1,
    Opcode.FADD: 3,
    Opcode.FSUB: 3,
    Opcode.FMUL: 4,
    Opcode.FDIV: 12,
    Opcode.GEP: 1,
    Opcode.SPAD_LOAD: 1,
    Opcode.SPAD_STORE: 1,
    Opcode.LOAD: 1,
    Opcode.STORE: 1,
}

_FP_OPS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})
_MEMORY_OPS = frozenset({Opcode.LOAD, Opcode.STORE})
_PLUMBING_OPS = frozenset({Opcode.INPUT, Opcode.CONST})

# Each member carries its latency, kind flags and declaration index as
# plain attributes.  Looking a member up in a set or dict calls
# ``Enum.__hash__``, a Python-level function, and these queries run
# once per op on every engine, placement and golden-model set-up.
for _index, _opcode in enumerate(Opcode):
    _opcode.index = _index
    _opcode.latency = _LATENCY[_opcode]
    _opcode.is_fp = _opcode in _FP_OPS
    _opcode.is_memory = _opcode in _MEMORY_OPS
    _opcode.is_compute = not _opcode.is_memory and _opcode not in _PLUMBING_OPS
del _index, _opcode


def opcode_index(opcode: Opcode) -> int:
    """Return *opcode*'s position in declaration order."""
    return opcode.index


def latency_of(opcode: Opcode) -> int:
    """Return the functional-unit occupancy (cycles) of *opcode*."""
    return opcode.latency


def is_fp(opcode: Opcode) -> bool:
    """Return True for floating-point compute opcodes."""
    return opcode.is_fp


def is_memory(opcode: Opcode) -> bool:
    """Return True for LOAD/STORE."""
    return opcode.is_memory


def is_compute(opcode: Opcode) -> bool:
    """Return True for opcodes that execute on an ALU (incl. GEP)."""
    return opcode.is_compute
