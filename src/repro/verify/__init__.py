"""Dynamic verification: trace sanitizing + differential alias fuzzing.

The static layer (:mod:`repro.compiler.verify`) audits the enforcement
*plan*; this package audits enforcement *behaviour*:

* :func:`repro.verify.sanitizer.sanitize_trace` — replay a traced run
  against the per-backend happens-before contract.
* :func:`repro.verify.fuzz.fuzz` — generate adversarial regions, set
  each up once (one placement, one compile, one golden run) and run
  every check of :data:`repro.verify.fuzz.CHECKS` on it: every backend
  against the golden result and the sanitizer, the reference engine
  against the fast one, every stage-1..4 NO/MUST verdict against the
  stage-5 separation-logic oracle, and the compiled MDE set against the
  oracle's required happens-before pairs.  Each failure is one (check,
  findings) record, shrunk to a minimal repro.  The package leaves the
  name ``fuzz`` to the submodule: import the campaign as
  ``from repro.verify.fuzz import fuzz``.
* :mod:`repro.verify.reproduce` — save/load/rerun shrunken repros; a
  rerun returns that check's findings.

See ``docs/verification.md``.
"""

from repro.verify.fuzz import (
    CHECKS,
    SYSTEMS,
    Check,
    FuzzFailure,
    FuzzResult,
    MemOpSpec,
    RegionSetup,
    RegionSpec,
    StaticContradiction,
    build_graph,
    build_setup,
    crosscheck_stages,
    generate_spec,
    shrink,
)
from repro.verify.reproduce import load_repro, rerun, save_failure
from repro.verify.sanitizer import (
    SanitizerReport,
    SanitizerViolation,
    sanitize_trace,
)

__all__ = [
    "CHECKS",
    "SYSTEMS",
    "Check",
    "FuzzFailure",
    "FuzzResult",
    "MemOpSpec",
    "RegionSetup",
    "RegionSpec",
    "SanitizerReport",
    "SanitizerViolation",
    "StaticContradiction",
    "build_graph",
    "build_setup",
    "crosscheck_stages",
    "generate_spec",
    "load_repro",
    "rerun",
    "sanitize_trace",
    "save_failure",
    "shrink",
]
