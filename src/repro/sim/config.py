"""Engine-level timing knobs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Latencies that are properties of the fabric, not of a backend."""

    #: Cycles to hand a store's value straight to a forwarded load.
    forward_latency: int = 1
    #: Cycles for a 1-bit ORDER ready-signal to reach the younger op.
    order_signal_latency: int = 1
    #: Idle cycles between region invocations (fence/token reset).
    invocation_gap: int = 1
    #: Model mesh-link *contention*: each directed link carries one
    #: operand per cycle along its XY route, so congested paths delay
    #: deliveries.  Off by default (the paper's static network is
    #: compiler-scheduled to avoid conflicts); the NoC ablation bench
    #: quantifies what dynamic contention would cost.
    model_link_contention: bool = False
