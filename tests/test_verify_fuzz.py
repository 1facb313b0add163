"""The differential alias fuzzer: deterministic generation, valid
graphs, clean campaigns on honest backends, shrinking, and the
save/load/rerun repro round-trip of every check."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

import repro.verify.fuzz as fuzz_module
from repro.experiments import common
from repro.experiments.cli import main
from repro.verify import (
    CHECKS,
    SYSTEMS,
    build_graph,
    build_setup,
    generate_spec,
    load_repro,
    rerun,
    save_failure,
    shrink,
)
from repro.verify.fuzz import FuzzFailure, MemOpSpec, RegionSpec, fuzz


def test_generate_spec_is_deterministic():
    for k in range(10):
        a = generate_spec(seed=7, index=k)
        b = generate_spec(seed=7, index=k)
        assert a == b
    assert generate_spec(seed=7, index=0) != generate_spec(seed=8, index=0)


def test_generated_graphs_are_valid():
    for k in range(20):
        spec = generate_spec(seed=3, index=k)
        graph = build_graph(spec)
        mem_ops = [op for op in graph.memory_ops]
        assert len(mem_ops) == len(spec.ops)
        for env in spec.env_dicts():
            assert all(isinstance(v, int) for v in env.values())


@pytest.mark.parametrize("system", SYSTEMS)
def test_golden_check_clean_on_honest_backend(system):
    """The golden check (golden result + sanitizer) is clean on the
    shared set-up of one region under every honest backend."""
    setup = build_setup(generate_spec(seed=0, index=0))
    assert CHECKS["golden"].findings(setup, system, None) == []


def test_each_system_gets_its_edge_tuple():
    """The set-up's graph carries no MDEs; ``nachos-sw``/``nachos`` are
    handed the compile's edges and every other system none, as in the
    sweep (``common._pipeline_for``)."""
    setup = build_setup(generate_spec(seed=0, index=0))
    assert not setup.graph.mdes
    compiled = tuple(setup.compiled.mdes)
    assert compiled
    for system in SYSTEMS:
        want = compiled if system in ("nachos-sw", "nachos") else ()
        assert setup.mdes(system) == want, system


def test_campaign_sets_each_region_up_once(monkeypatch):
    """Across all four checks and five backends, a clean campaign places,
    compiles and golden-runs each region exactly once."""
    from repro.compiler.pipeline import AliasPipeline

    calls = {"place": 0, "compile": 0, "golden": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(common, "place_region",
                        counting("place", common.place_region))
    monkeypatch.setattr(common, "golden_execute",
                        counting("golden", common.golden_execute))
    monkeypatch.setattr(AliasPipeline, "run",
                        counting("compile", AliasPipeline.run))
    result = fuzz(12, seed=0)
    assert result.ok, [f.describe() for f in result.failures]
    assert sum(result.checks.values()) == 12 * (2 * len(SYSTEMS) + 2)
    assert calls == {"place": 12, "compile": 12, "golden": 12}


def test_campaign_leaves_the_sweep_memos_and_cache_alone(monkeypatch):
    """Fuzzed runs are private: no memo entry, and the result cache is
    neither read nor written."""
    from repro.runtime.cache import ResultCache

    touched = []

    def refuse(name):
        def spy(self, *args, **kwargs):
            touched.append(name)
            raise AssertionError(f"the campaign called ResultCache.{name}")
        return spy

    monkeypatch.setattr(ResultCache, "get", refuse("get"))
    monkeypatch.setattr(ResultCache, "put", refuse("put"))
    common.clear_memos()
    assert fuzz(3, seed=0).ok
    assert touched == []
    for memo in (common._compile_memo, common._placement_memo,
                 common._trace_memo):
        assert not memo


def test_small_campaign_is_clean():
    """Every check runs on every region: the per-backend ones under each
    of the five backends, the per-region ones once."""
    result = fuzz(count=10, seed=0)
    assert result.ok, [f.describe() for f in result.failures]
    assert result.regions == 10
    assert result.checks == {
        "golden": 10 * len(SYSTEMS),
        "engines": 10 * len(SYSTEMS),
        "oracle": 10,
        "coverage": 10,
    }


def test_shrink_preserves_failure():
    """Shrinking a failing spec keeps it failing and never grows it."""
    base = generate_spec(seed=0, index=0)

    def fails(spec):
        # Synthetic predicate: "fails" iff it still has a store to
        # offset of the first op.  Exercises the shrink loop without
        # needing a live simulator bug.
        return any(
            op.is_store and op.offset == base.ops[0].offset for op in spec.ops
        )

    if not fails(base):
        base = RegionSpec(
            name=base.name,
            ops=(MemOpSpec(is_store=True, offset=base.ops[0].offset, width=8),)
            + base.ops,
            envs=base.envs,
            size=base.size,
        )
    small = shrink(base, fails)
    assert fails(small)
    assert len(small.ops) <= len(base.ops)
    assert len(small.envs) <= len(base.envs)


def test_repro_round_trip(tmp_path):
    spec = generate_spec(seed=0, index=1)
    findings = CHECKS["golden"].findings(build_setup(spec), "nachos", None)
    failure = FuzzFailure(
        spec=spec, check="golden", system="nachos", findings=tuple(findings)
    )
    path = save_failure(failure, tmp_path / "repro.json")
    assert load_repro(path) == failure
    assert rerun(path) == findings == []


def test_load_repro_rejects_other_json(tmp_path):
    path = tmp_path / "not-a-repro.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(ValueError):
        load_repro(path)


def test_load_repro_rejects_the_first_format(tmp_path):
    """A ``@1`` repro (one golden/engines/static record per failure) is
    refused by name: its fields do not map onto a (check, findings)
    record."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "format": "nachos-repro/fuzz-repro@1", "system": "nachos",
        "oracle_ok": False, "violations": [], "spec": {},
    }))
    with pytest.raises(ValueError, match="nachos-repro/fuzz-repro@1"):
        load_repro(path)


def test_cli_verify_smoke(capsys):
    rc = main(["verify", "--fuzz", "5", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks clean" in out
    for name in CHECKS:
        assert f"  {name} " in out


def test_cli_verify_subset_of_systems(capsys):
    rc = main(["verify", "--fuzz", "3", "--seed", "1", "--systems", "nachos"])
    assert rc == 0
    assert "nachos" in capsys.readouterr().out


def test_cli_verify_rejects_an_unknown_system(capsys):
    """A bad ``--systems`` name is a usage error (exit 2, the valid list
    printed) before any region runs, not a traceback that exits 1 like a
    failed campaign."""
    rc = main(["verify", "--fuzz", "1", "--systems", "bogus", "nachos"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "fuzzing systems" not in captured.out
    assert "bogus" in captured.err
    for system in SYSTEMS:
        assert system in captured.err
    with pytest.raises(ValueError, match="bogus"):
        fuzz(1, systems=["bogus"])


# ----------------------------------------------------------------------
# Static cross-checks: the stage-5 oracle + sync coverage in the loop
# ----------------------------------------------------------------------
class TestStaticCrossChecks:
    def test_200_region_campaign_finds_no_unsoundness_on_main(self):
        """The acceptance campaign: every stage-1..4 NO/MUST verdict of
        200 fixed-seed regions agrees with the separation-logic oracle,
        and every compiled MDE set covers the oracle's required pairs."""
        result = fuzz(200, seed=0, systems=["serial-mem"])
        assert result.checks["oracle"] == result.checks["coverage"] == 200
        assert result.ok, [f.describe() for f in result.failures]

    def test_fault_injection_is_caught_shrunk_and_recheckable(self, tmp_path):
        from repro.verify import crosscheck_stages

        result = fuzz(
            20, seed=7, systems=["serial-mem"], fault_seed=3, max_failures=1,
        )
        assert result.failures, "an eligible region must trip the fault"
        failure = result.failures[0]
        assert failure.check == "oracle"
        assert failure.system is None
        assert failure.fault_seed == 3
        assert failure.findings  # located finding survives the shrink
        assert "oracle" in failure.describe()
        assert failure.shrunk_from is not None
        assert len(failure.spec.ops) <= failure.shrunk_from
        assert len(failure.spec.ops) >= 2  # a pair is the floor

        # The standalone JSON repro re-checks: still failing with the
        # recorded fault seed, clean without it.
        path = save_failure(failure, tmp_path / "oracle-repro.json")
        assert load_repro(path) == replace(failure, shrunk_from=None)
        assert rerun(path) == list(failure.findings)
        assert crosscheck_stages(build_setup(failure.spec)) == []

    def test_coverage_only_campaign(self):
        """A campaign over one backend still runs the coverage check once
        per region."""
        result = fuzz(25, seed=3, systems=["serial-mem"])
        assert result.checks["coverage"] == 25
        assert result.ok, [f.describe() for f in result.failures]

    def test_sym_bounds_contain_every_env_value(self):
        # The invariant the static checkers lean on: a declared bound
        # that an environment violates would corrupt oracle verdicts.
        for k in range(60):
            spec = generate_spec(11, k)
            bounds = dict(spec.sym_bounds)
            for pairs in spec.envs:
                for name, value in pairs:
                    if name in bounds:
                        lo, hi = bounds[name]
                        assert lo <= value <= hi


class TestStaticCLI:
    def test_cli_oracle_coverage_clean(self, capsys):
        """A plain campaign runs the static checks too, once per region."""
        rc = main(["verify", "--fuzz", "10", "--systems", "serial-mem"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("oracle", "coverage"):
            assert re.search(rf"{name} +10 run\(s\), one per region:", out)
        assert "all checks clean" in out

    def test_cli_fault_injection_writes_repro(self, tmp_path, capsys):
        rc = main([
            "verify", "--fuzz", "5", "--seed", "7", "--systems", "serial-mem",
            "--inject-stage-fault", "3", "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "injected fault seed 3" in out
        repros = sorted(tmp_path.glob("*-oracle.json"))
        assert repros
        assert rerun(repros[0])

        rc = main(["verify", "--repro", str(repros[0])])
        assert rc == 1
        assert "still failing" in capsys.readouterr().out


# ----------------------------------------------------------------------
# One repro per check: caught by a campaign, saved, loaded, and still
# failing on rerun while the fault stays in
# ----------------------------------------------------------------------
def _round_trip(result, check, tmp_path):
    failure = next(f for f in result.failures if f.check == check)
    assert failure.findings
    assert failure.shrunk_from is not None
    path = save_failure(failure, tmp_path / f"{check}.json")
    loaded = load_repro(path)
    assert loaded == replace(failure, shrunk_from=None)
    assert rerun(path) == list(failure.findings)
    return failure


def test_oracle_repro_round_trips(tmp_path):
    """The injected stage fault is the oracle check's bug; the repro
    carries its seed, so the rerun re-injects it."""
    result = fuzz(20, seed=7, systems=["serial-mem"], fault_seed=3,
                  max_failures=1)
    failure = _round_trip(result, "oracle", tmp_path)
    assert failure.system is None and failure.fault_seed == 3


def test_coverage_repro_round_trips(monkeypatch, tmp_path):
    """Drop one compiled MAY edge, as an MDE-insertion bug would."""
    from repro.compiler.mde import MDEKind

    check_sync_coverage = fuzz_module.check_sync_coverage

    def drop_first_may(graph, mdes):
        may = [e for e in mdes if e.kind is MDEKind.MAY]
        return check_sync_coverage(
            graph, tuple(e for e in mdes if e not in may[:1])
        )

    monkeypatch.setattr(fuzz_module, "check_sync_coverage", drop_first_may)
    result = fuzz(30, seed=0, systems=["opt-lsq"], max_failures=1)
    failure = _round_trip(result, "coverage", tmp_path)
    assert failure.system is None
    assert "uncovered" in failure.findings[0]
    monkeypatch.undo()
    assert rerun(tmp_path / "coverage.json") == []


def test_golden_repro_round_trips(monkeypatch, tmp_path):
    """A NACHOS comparator that reports every ==? check as
    non-conflicting, as the sanitizer's mutation tests use."""
    from tests.test_verify_sanitizer import LiarComparator

    backend_for = common._backend_for

    def lying_nachos(system, lsq_config):
        if system == "nachos":
            return LiarComparator()
        return backend_for(system, lsq_config)

    monkeypatch.setattr(common, "_backend_for", lying_nachos)
    result = fuzz(30, seed=0, systems=["nachos"], max_failures=1)
    failure = _round_trip(result, "golden", tmp_path)
    assert failure.system == "nachos"
    monkeypatch.undo()
    assert rerun(tmp_path / "golden.json") == []


def test_engines_repro_round_trips(monkeypatch, tmp_path):
    """A fast engine that charges one cycle too many."""

    class OffByOne(fuzz_module.FastEngine):
        def run(self, envs):
            result = super().run(envs)
            result.cycles += 1
            return result

    monkeypatch.setattr(fuzz_module, "FastEngine", OffByOne)
    result = fuzz(3, seed=0, systems=["opt-lsq"], max_failures=1)
    failure = _round_trip(result, "engines", tmp_path)
    assert failure.system == "opt-lsq"
    assert len(failure.spec.ops) == 2  # any region diverges: shrunk to a pair
    monkeypatch.undo()
    assert rerun(tmp_path / "engines.json") == []
