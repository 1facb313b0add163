"""Cycle-level dataflow execution engine and the three memory backends.

The engine (:class:`~repro.sim.engine.DataflowEngine`) fires one region
invocation at a time over the placed dataflow graph, with compute
latencies, operand-network hop delays, and a functional value semantics
strong enough to *check correctness*: every backend must produce the same
load values and final memory image as strict program-order execution
(:mod:`repro.sim.oracle`).

Memory operations are delegated to a pluggable disambiguation backend:

* :class:`~repro.sim.backends.lsq.OptLSQBackend` — the paper's OPT-LSQ
  baseline (partitioned CAM + bloom filter, in-order issue),
* :class:`~repro.sim.backends.nachos_sw.NachosSWBackend` — compiler-only
  enforcement of MDEs (MAY serialized),
* :class:`~repro.sim.backends.nachos_hw.NachosBackend` — runtime ``==?``
  comparator checks for MAY edges.
"""

from repro.sim.config import EngineConfig
from repro.sim.engine import DataflowEngine
from repro.sim.factory import make_engine, resolve_engine_mode
from repro.sim.fast import FastEngine
from repro.sim.result import SimResult
from repro.sim.oracle import golden_execute, GoldenResult
from repro.sim.backends.lsq import LSQConfig, OptLSQBackend
from repro.sim.backends.nachos_sw import NachosSWBackend
from repro.sim.backends.nachos_hw import NachosBackend
from repro.sim.backends.serial import SerialMemBackend
from repro.sim.backends.spec_lsq import SpecLSQBackend, SpecLSQConfig
from repro.sim.timeline import (
    InvocationTimeline,
    OpTiming,
    TimelineRecorder,
    render_timeline,
)

__all__ = [
    "InvocationTimeline",
    "OpTiming",
    "TimelineRecorder",
    "render_timeline",
    "DataflowEngine",
    "EngineConfig",
    "FastEngine",
    "make_engine",
    "resolve_engine_mode",
    "GoldenResult",
    "LSQConfig",
    "NachosBackend",
    "NachosSWBackend",
    "OptLSQBackend",
    "SerialMemBackend",
    "SimResult",
    "SpecLSQBackend",
    "SpecLSQConfig",
    "golden_execute",
]
