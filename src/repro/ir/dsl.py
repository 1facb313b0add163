"""A tiny textual kernel DSL that parses into region graphs.

Writing regions through :class:`~repro.ir.builder.RegionBuilder` is
precise but verbose; the DSL makes examples, docs, and quick experiments
readable.  One statement per line; ``#`` starts a comment.

Declarations::

    arr  a 65536            # named array (heap), size in bytes
    arr  s 4096 stack       # stack space (promotable)
    ptr  p -> a             # opaque pointer; provenance traceable to a
    ptr  q -> a ?           # opaque pointer; provenance LOST (stage-2
                            # cannot see it; runtime target is still a)
    ivar i 512              # induction variable with trip count
    sym  k                  # opaque runtime value
    in   x                  # live-in value

Operations (each defines a new value name)::

    t1 = ld a[8*i + 16]     # load (width 8 by default)
    t2 = ld q[8*k] w4       # width-4 load through a pointer
    t3 = add t1 t2          # add/sub/mul/fadd/fsub/fmul/fdiv/cmp
    st a[8*i] = t3          # store
    st a[8*i] = t3 w4       # width-4 store

Addresses are ``base[affine]`` where the affine expression is a ``+``-
separated sum of ``coeff*var`` terms and integer constants (``var`` may
be an ivar or a sym).

Example::

    region = parse_region('''
        arr a 4096
        ivar i 64
        in x
        t = ld a[8*i]
        u = add t x
        st a[8*i] = u
    ''')
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from repro.ir.address import (
    AffineExpr,
    IVar,
    MemObject,
    MemorySpace,
    PointerParam,
    Sym,
)
from repro.ir.builder import RegionBuilder
from repro.ir.graph import DFGraph

_COMPUTE = {
    "add": "add", "sub": "sub", "mul": "mul", "shift": "shift",
    "cmp": "cmp", "fadd": "fadd", "fsub": "fsub", "fmul": "fmul",
    "fdiv": "fdiv",
}

_ADDR_RE = re.compile(r"^(\w+)\[(.*)\]$")


class DSLError(ValueError):
    """A parse or semantic error, with the offending line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class _Parser:
    def __init__(self, name: str) -> None:
        self.builder = RegionBuilder(name)
        self.arrays: Dict[str, MemObject] = {}
        self.pointers: Dict[str, PointerParam] = {}
        self.ivars: Dict[str, IVar] = {}
        self.syms: Dict[str, Sym] = {}
        self.values: Dict[str, object] = {}
        self._next_base = 0x100000

    # ------------------------------------------------------------------
    def base_of(self, name: str, lineno: int):
        if name in self.arrays:
            return self.arrays[name]
        if name in self.pointers:
            return self.pointers[name]
        raise DSLError(lineno, f"unknown array/pointer {name!r}")

    def value_of(self, name: str, lineno: int):
        try:
            return self.values[name]
        except KeyError:
            raise DSLError(lineno, f"unknown value {name!r}") from None

    def parse_affine(self, text: str, lineno: int) -> AffineExpr:
        const = 0
        ivs: Dict[IVar, int] = {}
        syms: Dict[Sym, int] = {}
        for raw in text.split("+"):
            term = raw.strip()
            if not term:
                raise DSLError(lineno, "empty term in address expression")
            if "*" in term:
                coeff_s, var = (p.strip() for p in term.split("*", 1))
                try:
                    coeff = int(coeff_s)
                except ValueError:
                    raise DSLError(lineno, f"bad coefficient {coeff_s!r}") from None
            else:
                try:
                    const += int(term)
                    continue
                except ValueError:
                    coeff, var = 1, term
            if var in self.ivars:
                iv = self.ivars[var]
                ivs[iv] = ivs.get(iv, 0) + coeff
            elif var in self.syms:
                s = self.syms[var]
                syms[s] = syms.get(s, 0) + coeff
            else:
                raise DSLError(lineno, f"unknown variable {var!r} in address")
        return AffineExpr.of(const=const, ivs=ivs, syms=syms)

    def parse_address(self, text: str, lineno: int):
        m = _ADDR_RE.match(text.strip())
        if not m:
            raise DSLError(lineno, f"expected base[expr], got {text!r}")
        base = self.base_of(m.group(1), lineno)
        offset = self.parse_affine(m.group(2), lineno)
        return base, offset

    # ------------------------------------------------------------------
    def statement(self, line: str, lineno: int) -> None:
        tokens = line.split()
        head = tokens[0]

        if head == "arr":
            if len(tokens) not in (3, 4):
                raise DSLError(lineno, "usage: arr NAME SIZE [stack|global]")
            space = MemorySpace.HEAP
            if len(tokens) == 4:
                try:
                    space = MemorySpace(tokens[3])
                except ValueError:
                    raise DSLError(lineno, f"unknown space {tokens[3]!r}") from None
            size = int(tokens[2])
            self.arrays[tokens[1]] = MemObject(
                tokens[1], size, space, base_addr=self._next_base
            )
            self._next_base += (size + 0xFFF) & ~0xFFF
            return

        if head == "ptr":
            # ptr NAME -> TARGET [?]
            if len(tokens) not in (4, 5) or tokens[2] != "->":
                raise DSLError(lineno, "usage: ptr NAME -> ARRAY [?]")
            target_name = tokens[3]
            if target_name not in self.arrays:
                raise DSLError(lineno, f"unknown target array {target_name!r}")
            target = self.arrays[target_name]
            opaque = len(tokens) == 5 and tokens[4] == "?"
            self.pointers[tokens[1]] = PointerParam(
                tokens[1],
                runtime_object=target,
                provenance=None if opaque else target,
            )
            return

        if head == "ivar":
            if len(tokens) != 3:
                raise DSLError(lineno, "usage: ivar NAME TRIP_COUNT")
            self.ivars[tokens[1]] = IVar(tokens[1], int(tokens[2]))
            return

        if head == "sym":
            if len(tokens) != 2:
                raise DSLError(lineno, "usage: sym NAME")
            self.syms[tokens[1]] = Sym(tokens[1])
            return

        if head == "in":
            if len(tokens) != 2:
                raise DSLError(lineno, "usage: in NAME")
            if tokens[1] in self.values:
                raise DSLError(lineno, f"value {tokens[1]!r} redefined")
            self.values[tokens[1]] = self.builder.input(tokens[1])
            return

        if head == "st":
            # st base[expr] = VALUE [wN]   (the address may contain spaces)
            m = re.match(r"^st\s+(.+\])\s*=\s*(\w+)(?:\s+w(\d+))?$", line)
            if not m:
                raise DSLError(lineno, "usage: st base[expr] = VALUE [wN]")
            base, offset = self.parse_address(m.group(1), lineno)
            value = self.value_of(m.group(2), lineno)
            width = int(m.group(3)) if m.group(3) else 8
            self.builder.store(base, offset, value=value, width=width)
            return

        # VALUE-defining statements: NAME = op ...
        if len(tokens) >= 3 and tokens[1] == "=":
            name = tokens[0]
            if name in self.values:
                raise DSLError(lineno, f"value {name!r} redefined")
            op = tokens[2]
            if op == "ld":
                m = re.match(
                    r"^\w+\s*=\s*ld\s+(.+\])(?:\s+w(\d+))?$", line
                )
                if not m:
                    raise DSLError(lineno, "usage: NAME = ld base[expr] [wN]")
                base, offset = self.parse_address(m.group(1), lineno)
                width = int(m.group(2)) if m.group(2) else 8
                self.values[name] = self.builder.load(base, offset, width=width)
                return
            if op in _COMPUTE:
                if len(tokens) != 5:
                    raise DSLError(lineno, f"usage: NAME = {op} A B")
                a = self.value_of(tokens[3], lineno)
                bval = self.value_of(tokens[4], lineno)
                self.values[name] = getattr(self.builder, _COMPUTE[op])(a, bval)
                return
            raise DSLError(lineno, f"unknown operation {op!r}")

        raise DSLError(lineno, f"cannot parse statement {line!r}")


def parse_region(text: str, name: str = "dsl-region") -> DFGraph:
    """Parse the kernel DSL into a validated region graph."""
    parser = _Parser(name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parser.statement(line, lineno)
    return parser.builder.build()
