"""Unit tests for the tooling layer: timelines, SVG charts, exports, CLI."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.analysis.svgplot import BarChart
from repro.analysis.tables import ascii_table, bar, markdown_table, pct
from repro.cgra.placement import place_region
from repro.memory import MemoryHierarchy
from repro.sim import (
    DataflowEngine,
    NachosSWBackend,
    TimelineRecorder,
    render_timeline,
)
from tests.conftest import build_simple_region


class TestTables:
    def test_ascii_table_alignment(self):
        out = ascii_table(["a", "bee"], [[1, 2.5], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)
        assert "2.5" in out

    def test_markdown_table(self):
        out = markdown_table(["x"], [[1]])
        assert out.splitlines()[1] == "|---|"

    def test_bar_clipping(self):
        assert bar(200, 100, width=10) == "#" * 10
        assert bar(-5, 100) == ""
        assert bar(50, 0) == ""

    def test_pct(self):
        assert pct(0.125) == "12.5%"


class TestTimeline:
    def _run_with_recorder(self):
        g = build_simple_region()
        recorder = TimelineRecorder()
        engine = DataflowEngine(
            g, place_region(g), MemoryHierarchy(), NachosSWBackend(),
            recorder=recorder,
        )
        engine.run([{"i": 0}, {"i": 1}])
        return g, recorder

    def test_captures_every_invocation(self):
        g, recorder = self._run_with_recorder()
        assert len(recorder) == 2
        assert recorder.invocations[0].index == 0

    def test_captures_every_op(self):
        g, recorder = self._run_with_recorder()
        assert len(recorder.invocations[0].timings) == len(g)

    def test_completion_lookup(self):
        g, recorder = self._run_with_recorder()
        tl = recorder.invocations[0]
        st = g.stores[0]
        assert tl.completion_of(st.op_id) <= tl.end
        with pytest.raises(KeyError):
            tl.completion_of(9999)

    def test_render_text_gantt(self):
        g, recorder = self._run_with_recorder()
        out = render_timeline(recorder.invocations[0])
        assert "invocation 0" in out
        assert out.count("#") == len(g)

    def test_render_memory_only(self):
        g, recorder = self._run_with_recorder()
        out = render_timeline(recorder.invocations[0], memory_only=True)
        assert out.count("#") == len(g.memory_ops)


class TestBarChart:
    def test_simple_chart_renders(self):
        chart = BarChart("t", ["a", "b"])
        chart.add_series("s", [1.0, 2.0])
        svg = chart.to_svg()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= 3  # 2 bars + legend swatch

    def test_series_length_checked(self):
        chart = BarChart("t", ["a", "b"])
        with pytest.raises(ValueError):
            chart.add_series("s", [1.0])

    def test_empty_chart_rejected(self):
        with pytest.raises(ValueError):
            BarChart("t", ["a"]).to_svg()

    def test_negative_values_supported(self):
        chart = BarChart("t", ["a", "b"])
        chart.add_series("s", [-5.0, 5.0])
        svg = chart.to_svg()
        assert "<rect" in svg

    def test_stacked_bars(self):
        chart = BarChart("t", ["a"], stacked=True)
        chart.add_series("x", [30.0])
        chart.add_series("y", [70.0])
        svg = chart.to_svg()
        assert svg.count('fill="#4878a8"') >= 1
        assert svg.count('fill="#e1812c"') >= 1

    def test_title_escaped(self):
        chart = BarChart("a<b", ["c"])
        chart.add_series("s", [1.0])
        assert "a&lt;b" in chart.to_svg()

    def test_save(self, tmp_path):
        chart = BarChart("t", ["a"])
        chart.add_series("s", [1.0])
        path = tmp_path / "x.svg"
        chart.save(str(path))
        assert path.read_text().startswith("<svg")


class TestChartsAdapters:
    def test_every_figure_has_a_chart(self):
        from repro.experiments import fig10, fig14, fig16, scope_study, appendix_model
        from repro.experiments.charts import chart_for

        for name, module in (
            ("fig10", fig10),
            ("fig14", fig14),
            ("fig16", fig16),
            ("scope", scope_study),
            ("appendix", appendix_model),
        ):
            result = module.run()
            chart = chart_for(name, result)
            assert chart is not None, name
            svg = chart.to_svg()
            assert svg.startswith("<svg"), name

    def test_table2_has_no_chart(self):
        from repro.experiments import table2
        from repro.experiments.charts import chart_for

        assert chart_for("table2", table2.run()) is None


class TestExport:
    def test_round_trip_json(self):
        from repro.experiments import fig14
        from repro.experiments.export import result_to_json

        result = fig14.run()
        payload = json.loads(result_to_json("fig14", result))
        assert payload["experiment"] == "fig14"
        assert len(payload["result"]["rows"]) == 27

    def test_rejects_non_dataclass(self):
        from repro.experiments.export import result_to_dict

        with pytest.raises(TypeError):
            result_to_dict("x", {"not": "a dataclass"})

    def test_save_json(self, tmp_path):
        from repro.experiments import scope_study
        from repro.experiments.export import save_json

        path = tmp_path / "scope.json"
        save_json("scope", scope_study.run(), str(path))
        assert json.loads(path.read_text())["experiment"] == "scope"


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "table2" in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.cli import main

        assert main(["nope"]) == 2

    def test_runs_one_experiment(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig14"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out

    def test_serve_rejects_removed_peer_flag(self, capsys, monkeypatch):
        import repro.serve.daemon as daemon

        def boot(**_kwargs):
            raise AssertionError("--peers was accepted")

        monkeypatch.setattr(daemon, "NachosServeDaemon", boot)
        with pytest.raises(SystemExit) as excinfo:
            daemon.main(["--peers", "a=h:1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --peers" in capsys.readouterr().err

    def test_profile_is_an_unknown_experiment(self, capsys):
        """Per-task host time is perfbench's, so ``profile`` is not a
        command: it is refused like any unknown experiment."""
        from repro.experiments.cli import main

        assert main(["profile", "fig14"]) == 2
        assert "unknown experiment(s): profile" in capsys.readouterr().err

    def test_failed_sweep_degrades_in_one_loop(
        self, tmp_path, monkeypatch, capsys
    ):
        """A sweep failure is recorded, the next experiment still runs,
        and the failure report is written."""
        from repro.experiments import cli
        from repro.runtime.executor import SweepError, SweepOutcome, TaskFailure

        def fail():
            raise SweepError(SweepOutcome(
                results=[None],
                failures=[TaskFailure(0, "r", "nachos", "error", 1, "boom")],
            ))

        monkeypatch.setitem(cli.EXPERIMENTS, "fig14", (fail, None, False))
        report = tmp_path / "failures.json"
        rc = cli.main([
            "fig14", "table2", "--failure-report", str(report),
        ])
        assert rc == 3
        assert "fig14: FAILED" in capsys.readouterr().err
        payload = json.loads(report.read_text())
        assert payload["completed"] == ["table2"]
        assert payload["failed"]["fig14"]["failures"][0]["message"] == "boom"

    def test_svg_and_json_output(self, tmp_path, capsys):
        from repro.experiments.cli import main

        rc = main([
            "fig14",
            "--svg-dir", str(tmp_path / "svg"),
            "--json-dir", str(tmp_path / "json"),
        ])
        assert rc == 0
        assert (tmp_path / "svg" / "fig14.svg").exists()
        assert (tmp_path / "json" / "fig14.json").exists()


def _load_script(rel):
    path = Path(__file__).resolve().parent.parent / rel
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_approx_coverage_summarize_and_render(tmp_path, monkeypatch):
    mod = _load_script("tools/approx_coverage.py")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    source = pkg / "mod.py"
    source.write_text("a = 1\nb = 2\nc = 3\n")
    monkeypatch.setattr(mod, "MEASURED", ("pkg",))
    executable = mod.executable_lines(str(source))
    hit = {str(source): set(list(executable)[:2])}
    summary = mod.summarize(hit, str(tmp_path))
    assert summary["total"]["lines"] == len(executable)
    assert summary["total"]["hit"] == 2
    assert summary["packages"]["pkg"]["pct"] == summary["total"]["pct"]
    rendered = mod.render(summary)
    assert "TOTAL" in rendered and "<- package" in rendered
