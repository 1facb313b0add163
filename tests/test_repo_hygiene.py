"""Repository hygiene: no bulky generated artifacts sneak into git, and
the package keeps no third-party runtime dependency.

A 408k-line ``trace.json`` once rode along in a commit; these tests make
that class of accident fail CI instead of bloating every future clone.
"""

import ast
import re
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Hard ceiling for any tracked file.  Source files and docs are all
#: far below this.
MAX_TRACKED_BYTES = 1024 * 1024


def _tracked_files():
    try:
        out = subprocess.run(
            ["git", "ls-files", "-z"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if out.returncode != 0:
        pytest.skip("not a git checkout")
    return [f for f in out.stdout.split("\0") if f]


def test_no_tracked_file_exceeds_size_ceiling():
    offenders = []
    for name in _tracked_files():
        path = REPO_ROOT / name
        try:
            size = path.stat().st_size
        except OSError:
            continue  # deleted in the index but not yet committed
        if size > MAX_TRACKED_BYTES:
            offenders.append(f"{name} ({size / 1048576.0:.1f} MiB)")
    assert not offenders, (
        "tracked file(s) exceed 1 MiB — generated artifacts belong in "
        ".gitignore, not in git: " + ", ".join(offenders)
    )


def test_trace_artifacts_are_not_tracked():
    tracked = set(_tracked_files())
    assert "trace.json" not in tracked, (
        "trace.json is a regenerable trace dump (nachos-repro trace ...); "
        "it must stay untracked"
    )


def test_no_tracked_file_is_gitignored():
    """Build metadata such as ``src/repro.egg-info/`` is regenerated by
    every install; a tracked copy goes stale (it once missed 15 modules
    and the ``nachos-serve`` entry point)."""
    _tracked_files()  # skips when git or the checkout is missing
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [], (
        "tracked files match .gitignore: " + ", ".join(out.stdout.split())
    )


def test_gitignore_covers_generated_artifacts():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("trace.json", "fuzz-repros/", "nachos-failure-report.json"):
        assert pattern in gitignore, f".gitignore is missing {pattern!r}"


#: Names of the retired perf observatory (run ledger, budget file,
#: dashboard) and of bench_sweep's warm-time gate.  Paired perfbench
#: runs against the merge base (``tools/perf_pairs.py``) replace both.
#: Then the names of the retired sweep checkpoint journal and of the
#: hand-bumped cache schema: a killed sweep resumes from the result
#: cache, whose keys hash the simulator's sources.  Then the retired
#: retry scheduler and its knobs: the simulator is deterministic, so the
#: pool requeues only a dead worker's task, once.  Then the per-system
#: graph clones: every system simulates ``workload.graph`` and hands its
#: engine the MDE tuple its backend enforces.  Then the engine-mode knob:
#: the run picks its engine (``repro.sim.factory.make_engine``).  Then the
#: fuzzer's check selection: every campaign runs every check.  Then the
#: timing harnesses, their receipts and report fields: tier-1 tests hold
#: their assertions.
RETIRED_PERF_NAMES = (
    "nachos-repro perf",
    "perf_budgets.toml",
    "--ledger",
    "NACHOS_PERF_LEDGER",
    "history.ndjson",
    "--check-warm-vs",
    "CACHE_SCHEMA",
    "SweepCheckpoint",
    "NACHOS_CHECKPOINT_DIR",
    "--checkpoint-dir",
    "checkpoint_hits",
    "RetryPolicy",
    "RetryScheduler",
    "NACHOS_TIMEOUT",
    "NACHOS_MAX_RETRIES",
    "NACHOS_BACKOFF",
    "--max-retries",
    "_bare_graph",
    "_oracle_graph",
    "clone(with_mdes",
    "NACHOS_ENGINE",
    "EngineModeFallback",
    "ENGINE_MODES",
    "engine_divergence",
    "static_kind",
    "_ENGINE_SELECTIONS",
    "bench_sweep.py",
    "bench_serve.py",
    "BENCH_sweep.json",
    "BENCH_serve.json",
    "SEED_SERIAL_SECONDS",
    "warm_forked_workers",
    "chaos_requeues",
)

#: The retired engine flags, the fuzzer's check-selection flags and the
#: engine config field, matched as whole words so that
#: ``EngineConfig(model_link_contention=...)`` does not trip them.
RETIRED_PERF_PATTERNS = (
    re.compile(r"--engines?\b"),
    re.compile(r"--oracle\b"),
    re.compile(r"--coverage\b"),
    re.compile(r"EngineConfig\(mode\b"),
)

#: perfbench still drops the old variables from the program's
#: environment, which is harmless.
RETIRED_NAMES_EXEMPT = ("perfbench/", "tests/test_repo_hygiene.py")


def test_no_tracked_file_names_the_retired_perf_observatory():
    """Root-level notes other than README.md are histories, plans and
    references: they may name what was removed."""
    offenders = []
    for name in _tracked_files():
        root_note = "/" not in name and name.endswith(".md") and name != "README.md"
        if root_note or name.startswith(RETIRED_NAMES_EXEMPT):
            continue
        try:
            text = (REPO_ROOT / name).read_bytes().decode("utf-8", "replace")
        except OSError:
            continue  # deleted in the index but not yet committed
        offenders += [f"{name}: {word!r}" for word in RETIRED_PERF_NAMES
                      if word in text]
        offenders += [f"{name}: {p.pattern!r}" for p in RETIRED_PERF_PATTERNS
                      if p.search(text)]
    assert not offenders, "retired perf names still in use: " + ", ".join(offenders)


@pytest.mark.parametrize(
    "argv",
    [["all", "--resume"], ["all", "--checkpoint-dir", "X"]],
    ids=["resume", "checkpoint-dir"],
)
def test_cli_rejects_retired_resume_flags(argv, capsys):
    """Rerunning the same command resumes a killed sweep; the journal's
    flags are gone, and argparse rejects them before anything runs."""
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry,argv",
    [
        ("nachos-repro", ["all", "--timeout", "5"]),
        ("nachos-repro", ["all", "--max-retries", "2"]),
        ("nachos-serve", ["--max-retries", "2"]),
    ],
    ids=["repro-timeout", "repro-max-retries", "serve-max-retries"],
)
def test_cli_rejects_retired_retry_flags(entry, argv, capsys):
    """A task is requeued only when its worker dies, once; the retry
    budget and per-task timeout flags are gone, and argparse rejects
    them before anything runs."""
    if entry == "nachos-repro":
        from repro.experiments.cli import main
    else:
        from repro.serve.daemon import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    flags = " ".join(a for a in argv if a != "all")
    assert f"unrecognized arguments: {flags}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry,argv",
    [
        ("nachos-repro", ["fig11", "--engine", "reference"]),
        ("nachos-serve", ["--engine", "reference"]),
        ("nachos-repro", ["verify", "--engines", "both"]),
        ("nachos-repro", ["verify", "--oracle"]),
        ("nachos-repro", ["verify", "--coverage"]),
        ("nachos-serve", ["--batch-window", "0"]),
        ("nachos-serve", ["--max-batch", "1"]),
    ],
    ids=[
        "repro-engine", "serve-engine", "repro-engines", "repro-oracle",
        "repro-coverage", "serve-batch-window", "serve-max-batch",
    ],
)
def test_cli_rejects_retired_engine_flag(entry, argv, capsys):
    """Knobs with one value in use are gone, and argparse rejects them
    before anything runs: the run picks its engine, every ``verify``
    campaign runs every check, the serve batcher has no window, and its
    batch cap is a constant."""
    if entry == "nachos-repro":
        from repro.experiments.cli import main
    else:
        from repro.serve.daemon import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    flags = " ".join(a for a in argv if a not in ("fig11", "verify"))
    assert f"unrecognized arguments: {flags}" in capsys.readouterr().err


RETIRED_OPTIONS = (
    "PipelineConfig.use_tbaa",
    "PipelineConfig.enumeration_limit",
    "EngineConfig.charge_network",
    "check_sync_coverage.use_tbaa",
    "traced_run.record_timeline",
)


@pytest.mark.parametrize("option", RETIRED_OPTIONS)
def test_retired_options_are_rejected(option):
    """Options with one value in use are gone: the TBAA axiom and the
    enumeration bound are fixed parts of the compiler, the oracle and
    the coverage check, the operand network is always charged, and a
    traced run always builds its own tracer, warms the caches and
    records no timeline.  Passing one fails before anything runs."""
    from repro.compiler import PipelineConfig
    from repro.compiler.coverage import check_sync_coverage
    from repro.obs import traced_run
    from repro.sim.config import EngineConfig
    from repro.workloads.micro import build_micro

    workload = build_micro("gather")
    calls = {
        "PipelineConfig.use_tbaa": lambda: PipelineConfig(use_tbaa=False),
        "PipelineConfig.enumeration_limit": lambda: PipelineConfig(enumeration_limit=4),
        "EngineConfig.charge_network": lambda: EngineConfig(charge_network=False),
        "check_sync_coverage.use_tbaa": lambda: check_sync_coverage(
            workload.graph, use_tbaa=False
        ),
        "traced_run.record_timeline": lambda: traced_run(
            workload, "nachos", record_timeline=True
        ),
    }
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        calls[option]()


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield (node.module or "").split(".")[0], node.lineno


def test_package_does_not_import_numpy():
    """``pyproject.toml`` declares no runtime dependencies, so nothing
    under ``src/repro`` may import NumPy (not even lazily)."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for root, lineno in _imported_roots(tree):
            if root == "numpy":
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}")
    assert not offenders, "numpy imported at " + ", ".join(offenders)


def test_verify_fuzz_names_the_module():
    """``repro.verify`` leaves the name ``fuzz`` to its submodule, so
    ``import repro.verify.fuzz as m`` binds the module, not the
    campaign function."""
    import types

    import repro.verify.fuzz as fuzz_module

    assert isinstance(fuzz_module, types.ModuleType)
    assert fuzz_module.__name__ == "repro.verify.fuzz"
    assert callable(fuzz_module.fuzz)


def test_perfbench_span_hooks_rebind_and_restore(monkeypatch):
    """The benchmark's spans rebind named functions in ``src/repro``
    (stage functions, ``runner.resolve_workload``, ``common.place_region``
    and friends, ``ResultCache.get``/``put``, the executor and the serve
    batcher's ``run_tasks_detailed``).  A rename there must fail here,
    not only in a traced benchmark run, and ``uninstall`` must put every
    original object back."""
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench.spans import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        rebound = list(tracer._undo)
        assert rebound, "install() rebound nothing"
        for owner, attr, original in rebound:
            assert getattr(owner, attr) is not original, (
                f"{owner.__name__}.{attr} was not rebound"
            )
    finally:
        tracer.uninstall()
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, (
            f"{owner.__name__}.{attr} not restored by uninstall()"
        )
    # perfbench/run.py prints the engine the program's own rule picks.
    from repro.sim.factory import resolve_engine_mode

    assert resolve_engine_mode() == "fast"
