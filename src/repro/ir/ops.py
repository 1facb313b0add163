"""Operations — the nodes of a region's dataflow graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.ir.address import AddressExpr
from repro.ir.opcodes import Opcode


@dataclass
class Operation:
    """A single dataflow operation.

    Attributes
    ----------
    op_id:
        Unique id within the region; also the operation's *program order*
        position (the compiler's 8-bit age in the LSQ baseline is derived
        from the rank among memory operations).
    opcode:
        What the functional unit computes.
    inputs:
        ``op_id`` s of the producers of this operation's data operands.
        For a LOAD the inputs produce the address; for a STORE they
        produce the address and the value.
    addr:
        Symbolic address — present exactly on LOAD/STORE.
    name:
        Optional human-readable label for reports and debugging.
    """

    op_id: int
    opcode: Opcode
    inputs: Tuple[int, ...] = ()
    addr: Optional[AddressExpr] = None
    name: str = ""

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        if self.opcode.is_memory and self.addr is None:
            raise ValueError(f"memory op {self.op_id} requires an address expression")
        if not self.opcode.is_memory and self.addr is not None:
            raise ValueError(f"non-memory op {self.op_id} must not carry an address")

    # ------------------------------------------------------------------
    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_memory(self) -> bool:
        return self.opcode.is_memory

    @property
    def latency(self) -> int:
        return self.opcode.latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.addr!r}" if self.addr is not None else ""
        label = f" '{self.name}'" if self.name else ""
        return f"Op#{self.op_id} {self.opcode.value}{tag}{label}"
