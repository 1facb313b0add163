"""Deterministic functional value semantics.

The timing simulator also computes *values* so that ordering bugs are
observable: every compute op mixes its input values, stores write tokens
to byte-granular memory, and loads read them back.  If a backend lets a
load slip past an aliasing store, the load's value — and everything
downstream — changes, and the program-order oracle catches it.

That evidence is large (one entry per dynamic load and per written
byte), so every run stores it packed: :class:`LoadValues` and
:class:`MemoryImage` hold it as ``array`` objects in one canonical order.
Two runs' evidence then compares as two array comparisons, and pickles
as array bytes rather than one Python object per entry.
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, Mapping, Sequence
from itertools import chain
from typing import Dict, Iterable, Iterator, Tuple

_MASK = (1 << 64) - 1
_SEED = 0x9E3779B97F4A7C15
_MUL = 0xBF58476D1CE4E5B9


def mix(*parts: int) -> int:
    """A stable 64-bit hash mixer (splitmix-style); not cryptographic.

    One round per part from a fixed seed; :func:`mix_on` continues the
    rounds from any state, and :class:`ValueMemory` runs them inline.
    """
    acc = _SEED
    for p in parts:
        acc = (acc ^ (p & _MASK)) * _MUL & _MASK
        acc ^= acc >> 31
    return acc


def mix_on(acc: int, parts: Iterable[int]) -> int:
    """Continue :func:`mix` from state *acc*.

    ``mix_on(mix(*a), b) == mix(*a, *b)``, so a caller that mixes the same
    leading parts many times can mix them once.
    """
    for p in parts:
        acc = (acc ^ (p & _MASK)) * _MUL & _MASK
        acc ^= acc >> 31
    return acc


def forwarded_value(value: int, width: int) -> int:
    """What a load observes when *value* is forwarded to it.

    Identical to storing *value* and immediately loading it back, so a
    forwarded load and a cache-served load of the same store agree.
    """
    return mix(*(mix(value, k) for k in range(width)))


class ValueMemory:
    """Byte-granular memory holding 64-bit tokens.

    A store of value ``v`` and width ``w`` at address ``a`` writes a
    byte-specific token derived from ``v`` to each byte in ``[a, a+w)``;
    a load hashes together the tokens of the bytes it covers.  Partial
    overlaps therefore produce distinct (and order-sensitive) values.
    """

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def store(self, addr: int, width: int, value: int) -> None:
        # Byte k gets mix(value, k), continued from mix(value).
        head = mix(value)
        memory = self._bytes
        for k in range(width):
            acc = (head ^ k) * _MUL & _MASK
            memory[addr + k] = acc ^ (acc >> 31)

    def load(self, addr: int, width: int) -> int:
        # mix() of the covered bytes' tokens (0 when unwritten).
        get = self._bytes.get
        acc = _SEED
        for byte in range(addr, addr + width):
            acc = (acc ^ get(byte, 0)) * _MUL & _MASK
            acc ^= acc >> 31
        return acc

    def snapshot(self) -> "MemoryImage":
        """Canonical final-state image for equality comparison."""
        return MemoryImage.pack(self._bytes)

    def __len__(self) -> int:
        return len(self._bytes)


class LoadValues(Mapping):
    """Every load's value, keyed ``(invocation, op_id)``, packed.

    Two arrays: the 32-bit keys, flattened ``inv, op, inv, op, ...`` in
    ascending ``(inv, op)`` order, and each key's 64-bit value.  A
    read-only mapping; it iterates in key order, and two ``LoadValues``
    are equal when their arrays are.  Comparing with any other mapping
    falls back to ``dict`` equality.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: array, values: array) -> None:
        self._keys = keys
        self._values = values

    @classmethod
    def pack(cls, values: Mapping[Tuple[int, int], int]) -> "LoadValues":
        """Pack a ``{(inv, op): value}`` mapping (any insertion order)."""
        keys = sorted(values)
        return cls(
            array("I", chain.from_iterable(keys)),
            array("Q", map(values.__getitem__, keys)),
        )

    def __getitem__(self, key: Tuple[int, int]) -> int:
        # Binary search over the (inv, op) pairs.
        keys = self._keys
        n = len(self._values)
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if (keys[2 * mid], keys[2 * mid + 1]) < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < n and (keys[2 * lo], keys[2 * lo + 1]) == key:
            return self._values[lo]
        raise KeyError(key)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        pairs = iter(self._keys)
        return zip(pairs, pairs)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> ItemsView:
        return _PackedItems(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LoadValues):
            return self._keys == other._keys and self._values == other._values
        return super().__eq__(other)

    def __reduce__(self):
        return (LoadValues, (self._keys, self._values))

    def __repr__(self) -> str:
        return f"LoadValues({dict(self.items())!r})"


class _PackedItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], int]]:
        return zip(iter(self._mapping), self._mapping._values)


class MemoryImage(Sequence):
    """A final memory state: ``(addr, token)`` pairs in address order, packed.

    Two arrays: the written byte addresses (ascending) and each byte's
    64-bit token.  A read-only sequence; two ``MemoryImage`` objects are
    equal when their arrays are.  Comparing with any other sequence falls
    back to ``tuple`` equality.
    """

    __slots__ = ("_addrs", "_tokens")

    def __init__(self, addrs: array, tokens: array) -> None:
        self._addrs = addrs
        self._tokens = tokens

    @classmethod
    def pack(cls, memory: Mapping[int, int]) -> "MemoryImage":
        """Pack an ``{addr: token}`` mapping (any insertion order)."""
        addrs = sorted(memory)
        return cls(array("q", addrs), array("Q", map(memory.__getitem__, addrs)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MemoryImage(self._addrs[index], self._tokens[index])
        return self._addrs[index], self._tokens[index]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self._addrs, self._tokens)

    def __len__(self) -> int:
        return len(self._addrs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MemoryImage):
            return self._addrs == other._addrs and self._tokens == other._tokens
        if isinstance(other, Sequence):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (MemoryImage, (self._addrs, self._tokens))

    def __repr__(self) -> str:
        return f"MemoryImage({tuple(self)!r})"
