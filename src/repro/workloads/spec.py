"""Benchmark specification schema.

Each spec records the Table II columns plus the generation knobs that
control which *ambiguity mechanism* produces each memory operation.  The
mechanisms map one-to-one onto the precision classes of the alias
pipeline:

=================== ======================================= ================
Mechanism           Address shape                           Resolved by
=================== ======================================= ================
DISTINCT            distinct named arrays, affine stride    stage 1 (NO)
STRIDED             same array, distinct constant offsets   stage 1 (NO)
PARAM_RESOLVABLE    opaque pointer, provenance traceable    stage 2 (NO)
PARAM_OPAQUE        opaque pointer, provenance lost         never (MAY);
                                                            runtime disjoint
MULTIDIM            same array, multi-IV affine subscript   stage 4 (NO)
INDIRECT            data-dependent index (``a[b[i]]``)      never (MAY);
                                                            runtime mostly
                                                            disjoint
=================== ======================================= ================

True dependencies (Table II C4) are generated separately as exact-match
pairs and are classified MUST by stage 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple


class Mechanism(enum.Enum):
    DISTINCT = "distinct"
    STRIDED = "strided"
    PARAM_RESOLVABLE = "param_resolvable"
    PARAM_OPAQUE = "param_opaque"
    MULTIDIM = "multidim"
    INDIRECT = "indirect"


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark of the study (one row of Table II + narrative)."""

    name: str
    suite: str                      # spec2000 | spec2006 | parsec | other
    n_ops: int                      # Table II C1: static ops in the DFG
    n_mem: int                      # C2: non-local memory operations
    mlp: int                        # C3: memory-level parallelism
    dep_st_st: int = 0              # C4 dependence counts
    dep_st_ld: int = 0
    dep_ld_st: int = 0
    pct_local: int = 0              # C5: % of memory ops promoted
    store_frac: float = 0.25        # stores / memory ops
    fp_frac: float = 0.0            # floating-point fraction of compute
    mechanism_mix: Dict[Mechanism, float] = field(
        default_factory=lambda: {Mechanism.DISTINCT: 1.0}
    )
    #: Access stride in bytes (64 = new cache line per invocation,
    #: streaming misses; 8 = one miss per eight invocations).
    stride: int = 8
    #: Iteration domain of the region's induction variables.
    trip_count: int = 1024
    #: Value range of data-dependent indices (small => real conflicts).
    indirect_range: int = 64
    #: Record width (in 8-byte fields) of the indirectly-indexed table:
    #: op *k* touches field ``k % indirect_fields`` of record
    #: ``index``, i.e. ``a[fields*index + k%fields]``.  With > 1 field,
    #: cross-field pairs are provably disjoint — but only to an analysis
    #: that reasons about symbolic strides modulo the record width (the
    #: stage-5 separation-logic checker); stages 1--4 keep them MAY.
    indirect_fields: int = 1
    #: INDIRECT ops index the STRIDED shared array instead of their own
    #: table: a few ambiguous ops MAY-alias *many* mutually-disjoint
    #: strided ops — the bzip2/sar-pfa high-fan-in shape of Figure 14.
    indirect_on_shared: bool = False
    #: Extra serial compute chain on the load-use path (critical path).
    chain_length: int = 2
    notes: str = ""

    def __post_init__(self) -> None:
        if self.n_mem > self.n_ops:
            raise ValueError(f"{self.name}: #MEM exceeds #OPs")
        if self.n_mem and self.mlp <= 0:
            raise ValueError(f"{self.name}: memory ops need a positive MLP")
        total = sum(self.mechanism_mix.values())
        if self.n_mem and abs(total - 1.0) > 1e-6:
            raise ValueError(f"{self.name}: mechanism mix sums to {total}, not 1")

    # ------------------------------------------------------------------
    @property
    def n_local(self) -> int:
        """Scratchpad ops to synthesize (capped for tractability)."""
        if self.pct_local <= 0:
            return 0
        raw = round(self.n_mem * self.pct_local / max(1, 100 - self.pct_local))
        return min(raw, max(2, self.n_ops // 4))

    @property
    def mem_fraction(self) -> float:
        return self.n_mem / self.n_ops if self.n_ops else 0.0

    def mechanism_counts(self, n_free: int) -> Dict[Mechanism, int]:
        """Split *n_free* untied memory ops across the mechanism mix."""
        counts: Dict[Mechanism, int] = {}
        assigned = 0
        items = sorted(self.mechanism_mix.items(), key=lambda kv: kv[0].value)
        for mech, weight in items[:-1]:
            c = round(weight * n_free)
            counts[mech] = c
            assigned += c
        if items:
            counts[items[-1][0]] = max(0, n_free - assigned)
        return counts
