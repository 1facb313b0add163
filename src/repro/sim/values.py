"""Deterministic functional value semantics.

The timing simulator also computes *values* so that ordering bugs are
observable: every compute op mixes its input values, stores write tokens
to byte-granular memory, and loads read them back.  If a backend lets a
load slip past an aliasing store, the load's value — and everything
downstream — changes, and the program-order oracle catches it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

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

    def snapshot(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical final-state image for equality comparison."""
        return tuple(sorted(self._bytes.items()))

    def __len__(self) -> int:
        return len(self._bytes)
