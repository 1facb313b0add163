"""The differential alias fuzzer: deterministic generation, valid
graphs, clean campaigns on honest backends, shrinking, and the
save/load/rerun repro round-trip."""

from __future__ import annotations

import pytest

from repro.experiments.cli import main
from repro.verify import (
    build_graph,
    fuzz,
    generate_spec,
    load_repro,
    rerun,
    run_spec,
    save_failure,
    shrink,
)
from repro.verify.fuzz import BACKENDS, FuzzFailure, MemOpSpec, RegionSpec


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


@pytest.mark.parametrize("system", sorted(BACKENDS))
def test_run_spec_clean_on_honest_backend(system):
    spec = generate_spec(seed=0, index=0)
    oracle_ok, report = run_spec(spec, system)
    assert oracle_ok
    assert report.ok, report.render()


def test_small_campaign_is_clean():
    result = fuzz(count=10, seed=0)
    assert not result.failures
    assert result.regions == 10
    assert result.runs == 10 * len(BACKENDS)


def test_shrink_preserves_failure():
    """Shrinking a failing spec keeps it failing and never grows it."""
    base = generate_spec(seed=0, index=0)

    def fails(spec, system):
        # Synthetic predicate: "fails" iff it still has a store to
        # offset of the first op.  Exercises the shrink loop without
        # needing a live simulator bug.
        return any(
            op.is_store and op.offset == base.ops[0].offset for op in spec.ops
        )

    if not fails(base, "nachos"):
        base = RegionSpec(
            name=base.name,
            ops=(MemOpSpec(is_store=True, offset=base.ops[0].offset, width=8),)
            + base.ops,
            envs=base.envs,
            size=base.size,
        )
    small = shrink(base, "nachos", fails)
    assert fails(small, "nachos")
    assert len(small.ops) <= len(base.ops)
    assert len(small.envs) <= len(base.envs)


def test_repro_round_trip(tmp_path):
    spec = generate_spec(seed=0, index=1)
    oracle_ok, report = run_spec(spec, "nachos")
    failure = FuzzFailure(
        spec=spec, system="nachos", oracle_ok=oracle_ok, sanitizer=report
    )
    path = save_failure(failure, tmp_path / "repro.json")
    loaded_spec, system = load_repro(path)
    assert loaded_spec == spec
    assert system == "nachos"
    ok2, report2 = rerun(path)
    assert ok2 == oracle_ok
    assert report2.ok == report.ok


def test_load_repro_rejects_other_json(tmp_path):
    path = tmp_path / "not-a-repro.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(ValueError):
        load_repro(path)


def test_cli_verify_smoke(capsys):
    rc = main(["verify", "--fuzz", "5", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean" in out.lower()


def test_cli_verify_subset_of_systems(capsys):
    rc = main(["verify", "--fuzz", "3", "--seed", "1", "--systems", "nachos"])
    assert rc == 0
    assert "nachos" in capsys.readouterr().out


def test_cli_coverage_flag_before_subcommand(capsys):
    """``--coverage`` is a bare flag: placed before ``verify`` it must not
    swallow the subcommand as a value."""
    rc = main(["--coverage", "verify", "--fuzz", "2", "--seed", "0"])
    assert rc == 0
    assert "MDE sync coverage complete" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Static cross-checks: the stage-5 oracle + sync coverage in the loop
# ----------------------------------------------------------------------
class TestStaticCrossChecks:
    def test_200_region_campaign_finds_no_unsoundness_on_main(self):
        """The acceptance campaign: every stage-1..4 NO/MUST verdict of
        200 fixed-seed regions agrees with the separation-logic oracle,
        and every compiled MDE set covers the oracle's required pairs."""
        from repro.verify import fuzz as fuzz_fn

        result = fuzz_fn(
            200, seed=0, systems=["serial-mem"], oracle=True, coverage=True
        )
        assert result.static_checks == 200
        assert result.ok, [f.describe() for f in result.failures]

    def test_fault_injection_is_caught_shrunk_and_recheckable(self, tmp_path):
        from repro.verify import crosscheck_stages
        from repro.verify import fuzz as fuzz_fn

        result = fuzz_fn(
            20, seed=7, systems=["serial-mem"], oracle=True,
            fault_seed=3, max_failures=1,
        )
        assert result.failures, "an eligible region must trip the fault"
        failure = result.failures[0]
        assert failure.system == "static"
        assert failure.static_kind == "oracle"
        assert failure.fault_seed == 3
        assert failure.static_findings  # located finding survives the shrink
        assert "oracle" in failure.describe()
        assert failure.shrunk_from is not None
        assert len(failure.spec.ops) <= failure.shrunk_from
        assert len(failure.spec.ops) >= 2  # a pair is the floor

        # The standalone JSON repro re-checks: still failing with the
        # recorded fault seed, clean without it.
        path = save_failure(failure, tmp_path / "static-repro.json")
        still_ok, report = rerun(path)
        assert not still_ok
        assert not report.ok and report.backend == "static"
        assert crosscheck_stages(failure.spec) == []

    def test_coverage_only_campaign(self):
        from repro.verify import fuzz as fuzz_fn

        result = fuzz_fn(25, seed=3, systems=["serial-mem"], coverage=True)
        assert result.static_checks == 25
        assert result.ok

    def test_fault_seed_requires_oracle(self):
        from repro.verify import fuzz as fuzz_fn

        with pytest.raises(ValueError):
            fuzz_fn(1, systems=["serial-mem"], fault_seed=1)

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
        rc = main([
            "verify", "--fuzz", "10", "--systems", "serial-mem",
            "--oracle", "--coverage",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "statically cross-checked" in out
        assert "oracle contradiction" in out
        assert "sync coverage" in out

    def test_cli_fault_injection_writes_repro(self, tmp_path, capsys):
        rc = main([
            "verify", "--fuzz", "5", "--seed", "7", "--systems", "serial-mem",
            "--oracle", "--inject-stage-fault", "3",
            "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "injected fault seed 3" in out
        repros = list(tmp_path.glob("*.json"))
        assert repros
        still_ok, report = rerun(repros[0])
        assert not still_ok and not report.ok

    def test_cli_fault_without_oracle_is_an_error(self, capsys):
        rc = main([
            "verify", "--fuzz", "1", "--systems", "serial-mem",
            "--inject-stage-fault", "3",
        ])
        assert rc == 2
