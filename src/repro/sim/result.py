"""Simulation outputs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.energy.accounting import EnergyBreakdown, EnergyLedger
from repro.sim.values import LoadValues, MemoryImage


@dataclass
class BackendStats:
    """Backend-specific dynamic event counters."""

    # OPT-LSQ
    bloom_probes: int = 0
    bloom_hits: int = 0
    cam_checks: int = 0
    lsq_forwards: int = 0
    # NACHOS
    comparator_checks: int = 0
    comparator_conflicts: int = 0
    runtime_forwards: int = 0
    order_waits: int = 0
    # SPEC-LSQ (speculative baseline)
    speculations: int = 0
    violations: int = 0
    replays: int = 0

    #: The integer counter field names, in declaration order.
    COUNTERS = (
        "bloom_probes",
        "bloom_hits",
        "cam_checks",
        "lsq_forwards",
        "comparator_checks",
        "comparator_conflicts",
        "runtime_forwards",
        "order_waits",
        "speculations",
        "violations",
        "replays",
    )

    # -- derived rates (all guarded against empty denominators) ---------
    @property
    def misprediction_rate(self) -> float:
        return self.violations / self.speculations if self.speculations else 0.0

    @property
    def bloom_hit_rate(self) -> float:
        return self.bloom_hits / self.bloom_probes if self.bloom_probes else 0.0

    @property
    def cam_check_rate(self) -> float:
        """CAM searches per bloom probe (energy-relevant filter quality)."""
        return self.cam_checks / self.bloom_probes if self.bloom_probes else 0.0

    @property
    def conflict_rate(self) -> float:
        """Fraction of ``==?`` comparator checks that found an overlap."""
        if not self.comparator_checks:
            return 0.0
        return self.comparator_conflicts / self.comparator_checks

    @property
    def forward_rate(self) -> float:
        """Runtime ST->LD forwards per comparator conflict."""
        if not self.comparator_conflicts:
            return 0.0
        return self.runtime_forwards / self.comparator_conflicts

    @property
    def mde_resolutions(self) -> int:
        """Dynamic MDE resolution events (serialized waits + checks)."""
        return self.order_waits + self.comparator_checks

    @property
    def order_wait_fraction(self) -> float:
        """Of all dynamic MDE resolutions, the fraction serialized as
        completion waits (vs resolved by a runtime comparator check)."""
        total = self.mde_resolutions
        return self.order_waits / total if total else 0.0

    @property
    def replay_rate(self) -> float:
        return self.replays / self.speculations if self.speculations else 0.0

    def as_dict(self, rates: bool = True) -> dict:
        """Counters (ints) plus, optionally, the derived rates (floats).

        This is the export surface the metrics registry consumes; rates
        are safe on any counter combination (empty denominators -> 0.0).
        """
        out = {name: getattr(self, name) for name in self.COUNTERS}
        if rates:
            out.update(
                bloom_hit_rate=self.bloom_hit_rate,
                cam_check_rate=self.cam_check_rate,
                conflict_rate=self.conflict_rate,
                forward_rate=self.forward_rate,
                misprediction_rate=self.misprediction_rate,
                order_wait_fraction=self.order_wait_fraction,
                replay_rate=self.replay_rate,
            )
        return out


@dataclass
class SimResult:
    """Everything one simulation run produces."""

    region: str
    backend: str
    invocations: int
    cycles: int
    per_invocation_cycles: List[int]
    energy: EnergyLedger
    backend_stats: BackendStats
    #: The value evidence the golden model checks, packed.
    load_values: LoadValues
    memory_image: MemoryImage
    l1_hits: int = 0
    l1_misses: int = 0

    # ------------------------------------------------------------------
    @property
    def mean_invocation_cycles(self) -> float:
        if not self.per_invocation_cycles:
            return 0.0
        return sum(self.per_invocation_cycles) / len(self.per_invocation_cycles)

    @property
    def energy_breakdown(self) -> EnergyBreakdown:
        return self.energy.breakdown()

    @property
    def total_energy(self) -> float:
        return self.energy.total

    def speedup_over(self, other: "SimResult") -> float:
        """>1 means *self* is faster than *other*."""
        if self.cycles == 0:
            return float("inf")
        return other.cycles / self.cycles

    def slowdown_pct_vs(self, other: "SimResult") -> float:
        """Positive = slower than *other* (Figure 11/15 convention)."""
        if other.cycles == 0:
            return 0.0
        return (self.cycles - other.cycles) / other.cycles * 100.0
