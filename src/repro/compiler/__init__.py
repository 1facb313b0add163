"""The NACHOS-SW compiler: pairwise alias analysis and MDE insertion.

This package is the software half of the paper's contribution.  It takes a
region dataflow graph (:class:`repro.ir.DFGraph`) and produces:

* a pairwise alias labeling (``NO`` / ``MAY`` / ``MUST``) refined through
  the four analysis stages mirroring Section V of the paper plus the
  stage-5 separation-logic checker for symbolic pairs (ROADMAP item 4),
  and
* the set of memory dependency edges (MDEs) the accelerator must enforce,
  after stage-3 redundancy elimination — auditable after the fact by the
  static verifier (:mod:`repro.compiler.verify`) and the oracle-driven
  sync-coverage checker (:mod:`repro.compiler.coverage`).

Entry point: :class:`~repro.compiler.pipeline.AliasPipeline`.
"""

from repro.compiler.aliasing.stage5 import (
    OracleVerdict,
    Stage5Stats,
    oracle_verdict,
    region_verdicts,
    separation_verdict,
)
from repro.compiler.coverage import (
    CoverageError,
    CoverageGap,
    CoverageReport,
    check_sync_coverage,
    required_pairs,
)
from repro.compiler.labels import AliasLabel, AliasMatrix, PairKind, pair_kind
from repro.compiler.ordering import (
    edge_guarantees_order,
    is_forward_candidate,
    relation_guarantees_order,
)
from repro.compiler.pipeline import (
    AliasPipeline,
    PipelineConfig,
    PipelineResult,
    compile_region,
)
from repro.compiler.mde import insert_mdes
from repro.compiler.report import explain, stage_census
from repro.compiler.verify import (
    OrderingViolation,
    guaranteed_reachability,
    verify_enforcement,
)

__all__ = [
    "CoverageError",
    "CoverageGap",
    "CoverageReport",
    "OracleVerdict",
    "OrderingViolation",
    "Stage5Stats",
    "check_sync_coverage",
    "edge_guarantees_order",
    "explain",
    "guaranteed_reachability",
    "is_forward_candidate",
    "oracle_verdict",
    "region_verdicts",
    "relation_guarantees_order",
    "required_pairs",
    "separation_verdict",
    "stage_census",
    "verify_enforcement",
    "AliasLabel",
    "AliasMatrix",
    "AliasPipeline",
    "PairKind",
    "PipelineConfig",
    "PipelineResult",
    "compile_region",
    "insert_mdes",
    "pair_kind",
]
