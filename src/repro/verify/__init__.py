"""Dynamic verification: trace sanitizing + differential alias fuzzing.

The static layer (:mod:`repro.compiler.verify`) audits the enforcement
*plan*; this package audits enforcement *behaviour*:

* :func:`repro.verify.sanitizer.sanitize_trace` — replay a traced run
  against the per-backend happens-before contract.
* :func:`repro.verify.fuzz.fuzz` — generate adversarial regions and run
  every check of :data:`repro.verify.fuzz.CHECKS` on each: every backend
  against ``golden_execute`` and the sanitizer, the reference engine
  against the fast one, every stage-1..4 NO/MUST verdict against the
  stage-5 separation-logic oracle, and the installed MDE set against the
  oracle's required happens-before pairs.  Each failure is one (check,
  findings) record, shrunk to a minimal repro.
* :mod:`repro.verify.reproduce` — save/load/rerun shrunken repros; a
  rerun returns that check's findings.

See ``docs/verification.md``.
"""

from repro.verify.fuzz import (
    BACKENDS,
    CHECKS,
    Check,
    FuzzFailure,
    FuzzResult,
    MemOpSpec,
    RegionSpec,
    StaticContradiction,
    build_graph,
    coverage_gaps_spec,
    crosscheck_stages,
    fuzz,
    generate_spec,
    run_spec,
    shrink,
)
from repro.verify.reproduce import load_repro, rerun, save_failure
from repro.verify.sanitizer import (
    SanitizerReport,
    SanitizerViolation,
    sanitize_trace,
)

__all__ = [
    "BACKENDS",
    "CHECKS",
    "Check",
    "FuzzFailure",
    "FuzzResult",
    "MemOpSpec",
    "RegionSpec",
    "SanitizerReport",
    "SanitizerViolation",
    "StaticContradiction",
    "build_graph",
    "coverage_gaps_spec",
    "crosscheck_stages",
    "fuzz",
    "generate_spec",
    "load_repro",
    "rerun",
    "run_spec",
    "sanitize_trace",
    "save_failure",
    "shrink",
]
