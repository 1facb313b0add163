"""The NACHOS-SW driver.

Runs stage 1 (intra-region), stage 2 (inter-procedural), stage 4
(polyhedral), and stage 5 (separation-logic) label refinement, then
stage 3 enforcement pruning, and finally lowers the retained relations
to MDEs.  Stages 2/3/4/5 can be toggled to reproduce the paper's
ablations:

* full NACHOS-SW             -> all stages (the default),
* "baseline compiler" of
  Figure 12                  -> stages 1 + 3 only,
* paper-faithful 4-stage
  pipeline                   -> ``use_stage5=False``,
* stage-wise figures 6/7/9   -> intermediate matrices exposed on the
  :class:`PipelineResult`.

Nothing else is configurable.  TBAA is always applied (the model is
compiled with ``-fstrict-aliasing``) and the enumeration bound is the
module constant
:data:`~repro.compiler.aliasing.symbolic.DEFAULT_ENUMERATION_LIMIT`, so
the stage-5 oracle and the coverage check assume the same axiom and
bound as the compile.

Label refinement is monotone: stages 2, 4, and 5 only turn MAY into NO
or MUST, so running refinement before pruning is equivalent to the
paper's 1-2-3-4 presentation order (pruned MAYs that would refine to NO
produce no MDE either way) while keeping each stage's report
observable.  Stage 5 goes beyond the paper (ROADMAP item 4): it applies
separation-logic footprint reasoning to the symbolic MAY pairs stages
1--4 refuse, and doubles as the independent oracle the differential
fuzzer cross-checks those stages against
(:mod:`repro.compiler.aliasing.stage5`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.aliasing.stage1 import analyze_stage1
from repro.compiler.aliasing.stage2 import refine_stage2
from repro.compiler.aliasing.stage3 import EnforcementPlan, prune_stage3, retain_all
from repro.compiler.aliasing.stage4 import refine_stage4
from repro.compiler.aliasing.stage5 import Stage5Stats, refine_stage5
from repro.compiler.labels import AliasMatrix
from repro.compiler.mde import insert_mdes
from repro.ir.graph import DFGraph, MDEKind, MemoryDependencyEdge


@dataclass(frozen=True)
class PipelineConfig:
    """Which stages run; mirrors the paper's ablation axes."""

    use_stage2: bool = True
    use_stage3: bool = True
    use_stage4: bool = True
    use_stage5: bool = True

    @classmethod
    def full(cls) -> "PipelineConfig":
        return cls()

    @classmethod
    def baseline_compiler(cls) -> "PipelineConfig":
        """Figure 12's baseline: stage 1 labels + stage 3 pruning only."""
        return cls(use_stage2=False, use_stage4=False, use_stage5=False)

    @classmethod
    def software_only_stage1(cls) -> "PipelineConfig":
        return cls(
            use_stage2=False, use_stage3=False, use_stage4=False, use_stage5=False
        )


@dataclass
class PipelineResult:
    """Everything the experiments need about one region's compilation."""

    graph: DFGraph
    config: PipelineConfig
    stage1: AliasMatrix
    stage2: Optional[AliasMatrix]
    stage4: Optional[AliasMatrix]
    final_labels: AliasMatrix
    plan: EnforcementPlan
    mdes: List[MemoryDependencyEdge]
    exact_pairs: Set[Tuple[int, int]] = field(default_factory=set)
    stage5: Optional[AliasMatrix] = None
    stage5_stats: Optional[Stage5Stats] = None

    # ------------------------------------------------------------------
    @property
    def pre_stage5_labels(self) -> AliasMatrix:
        """The last stage-1..4 matrix — what the oracle cross-checks.

        When stage 5 ran, ``final_labels`` already contains its verdicts,
        so checking those against the oracle would be vacuous; the fuzzer
        wants the best matrix the paper-faithful stages produced.
        """
        for matrix in (self.stage4, self.stage2, self.stage1):
            if matrix is not None:
                return matrix
        raise AssertionError("stage 1 always runs")  # pragma: no cover

    # ------------------------------------------------------------------
    @property
    def total_pairs(self) -> int:
        return self.stage1.total

    @property
    def may_mdes(self) -> List[MemoryDependencyEdge]:
        return [e for e in self.mdes if e.kind is MDEKind.MAY]

    @property
    def must_mdes(self) -> List[MemoryDependencyEdge]:
        return [e for e in self.mdes if e.kind is not MDEKind.MAY]

    def may_fan_in(self) -> Dict[int, int]:
        """op_id -> number of older MAY-alias parents (Figure 14 input)."""
        fan: Dict[int, int] = {op.op_id: 0 for op in self.graph.memory_ops}
        for edge in self.may_mdes:
            fan[edge.dst] += 1
        return fan

    @property
    def needs_no_disambiguation(self) -> bool:
        """True when the compiler proved every pair (no MAY MDEs left)."""
        return not self.may_mdes


class AliasPipeline:
    """Run NACHOS-SW's analyses over one region graph."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig.full()

    def run(self, graph: DFGraph, apply_mdes: bool = True) -> PipelineResult:
        cfg = self.config
        exact: Set[Tuple[int, int]] = set()

        stage1 = analyze_stage1(graph, exact_pairs=exact)
        current = stage1

        stage2 = None
        if cfg.use_stage2:
            stage2 = refine_stage2(graph, current, exact_pairs=exact)
            current = stage2

        stage4 = None
        if cfg.use_stage4:
            stage4 = refine_stage4(graph, current, exact_pairs=exact)
            current = stage4

        stage5 = None
        stage5_stats = None
        if cfg.use_stage5:
            stage5_stats = Stage5Stats()
            stage5 = refine_stage5(
                graph, current, exact_pairs=exact, stats=stage5_stats
            )
            current = stage5

        if cfg.use_stage3:
            plan = prune_stage3(graph, current, exact_pairs=exact)
        else:
            plan = retain_all(graph, current)

        mdes = insert_mdes(graph, plan, exact, current, apply=apply_mdes)
        return PipelineResult(
            graph=graph,
            config=cfg,
            stage1=stage1,
            stage2=stage2,
            stage4=stage4,
            final_labels=current,
            plan=plan,
            mdes=mdes,
            exact_pairs=exact,
            stage5=stage5,
            stage5_stats=stage5_stats,
        )


def compile_region(
    graph: DFGraph, config: Optional[PipelineConfig] = None
) -> PipelineResult:
    """Convenience wrapper: run the full pipeline and install the MDEs."""
    return AliasPipeline(config).run(graph)
