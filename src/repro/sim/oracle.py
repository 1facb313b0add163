"""The program-order golden model.

Executes a region's invocations strictly in program order with the same
functional value semantics as the timing engine.  Any backend that
enforces memory ordering correctly must reproduce the oracle's load
values and final memory image exactly — this is the correctness contract
the property-based tests check for all three disambiguation schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.ir.graph import DFGraph
from repro.ir.opcodes import Opcode
from repro.sim.values import LoadValues, MemoryImage, ValueMemory, mix, mix_on

# Op-program kinds.
_COMPUTE = 0
_LOAD = 1
_STORE = 2
_INPUT = 3


@dataclass
class GoldenResult:
    """Reference outputs of program-order execution, packed like a run's."""

    load_values: LoadValues
    memory_image: MemoryImage

    def matches(
        self,
        load_values: Mapping[Tuple[int, int], int],
        memory_image: Sequence[Tuple[int, int]],
    ) -> bool:
        """Whether a run's evidence equals this one: two array comparisons
        for packed evidence, element-wise for a plain dict and tuple."""
        return self.load_values == load_values and self.memory_image == memory_image


def _compile(graph: DFGraph) -> Tuple[List[int], List[tuple]]:
    """Flatten *graph* into (initial value slots, op program).

    Values live in a list indexed by program-order position.  CONST
    values are invocation-invariant and preset in the initial slots;
    every other op is one ``(kind, slot, a, b, c)`` step.  A compute op
    carries ``mix(opcode id)`` and an INPUT ``mix(0x1F, op_id)``: the
    states :func:`~repro.sim.values.mix_on` continues from.
    """
    ops = graph.ops
    slot_of = {op.op_id: slot for slot, op in enumerate(ops)}
    init = [0] * len(ops)
    program: List[tuple] = []
    for slot, op in enumerate(ops):
        oid = op.op_id
        opcode = op.opcode
        if opcode is Opcode.CONST:
            init[slot] = mix(0xC0, oid)
        elif opcode is Opcode.INPUT:
            program.append((_INPUT, slot, mix(0x1F, oid), None, None))
        elif op.is_load:
            program.append((_LOAD, slot, oid, op.addr, op.addr.width))
        elif op.is_store:
            program.append(
                (_STORE, slot, slot_of[op.inputs[-1]], op.addr, op.addr.width)
            )
        else:
            program.append((
                _COMPUTE, slot, mix(opcode.index),
                tuple(slot_of[i] for i in op.inputs), None,
            ))
    return init, program


def golden_execute(
    graph: DFGraph, invocations: Iterable[Mapping[str, int]]
) -> GoldenResult:
    """Run *graph* in strict program order over *invocations*."""
    init, program = _compile(graph)
    memory = ValueMemory()
    load_values: Dict[Tuple[int, int], int] = {}
    for inv, env in enumerate(invocations):
        values = init[:]
        for kind, slot, a, b, c in program:
            if kind == _COMPUTE:
                values[slot] = mix_on(a, [values[i] for i in b])
            elif kind == _LOAD:
                values[slot] = load_values[(inv, a)] = memory.load(
                    b.evaluate(env), c
                )
            elif kind == _STORE:
                values[slot] = value = values[a]
                memory.store(b.evaluate(env), c, value)
            else:
                values[slot] = mix_on(a, (inv,))
    return GoldenResult(
        load_values=LoadValues.pack(load_values), memory_image=memory.snapshot()
    )
