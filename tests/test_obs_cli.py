"""End-to-end CLI tests for the observability surfaces: ``repro chaos
--metrics/--trace``, ``repro run --metrics``, ``repro sanitize
--metrics`` and the ``repro obs`` viewer."""

import json

import pytest

from repro.cli import main
from repro.obs.paper import merge_paper_metrics
from repro.obs.snapshot import load_snapshot_jsonl


@pytest.fixture(scope="module")
def chaos_snapshot(tmp_path_factory):
    """One small instrumented chaos campaign (shared across tests)."""
    out = tmp_path_factory.mktemp("chaos") / "metrics.jsonl"
    trace = out.parent / "trace.json"
    code = main(
        [
            "chaos",
            "--specs",
            "prob-crash,torn-update",
            "--seeds",
            "2",
            "--iterations",
            "150",
            "--metrics",
            str(out),
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    return out, trace


class TestChaosMetrics:
    def test_snapshot_cells_and_aggregate(self, chaos_snapshot):
        out, _trace = chaos_snapshot
        lines = load_snapshot_jsonl(out)
        cells = [line for line in lines if line["kind"] == "cell"]
        aggregates = [line for line in lines if line["kind"] == "aggregate"]
        assert len(cells) == 4  # 2 specs x 2 seeds
        assert len(aggregates) == 1
        for cell in cells:
            metrics = cell["metrics"]
            assert metrics["tau_max"] >= 1
            assert metrics["tau_histogram"][-1][0] == "+Inf"
            assert metrics["window_counts"] is not None
            # Live snapshot agrees with the post-hoc certifiers by
            # construction — the flags ARE the certificate verdicts.
            assert metrics["lemma_6_1_violations"] == 0
            assert metrics["lemma_6_4_holds"] is True

    def test_aggregate_is_merge_of_cells(self, chaos_snapshot):
        out, _trace = chaos_snapshot
        lines = load_snapshot_jsonl(out)
        cells = [l["metrics"] for l in lines if l["kind"] == "cell"]
        aggregate = next(l for l in lines if l["kind"] == "aggregate")
        assert aggregate["metrics"] == merge_paper_metrics(cells)

    def test_chrome_trace_artifact(self, chaos_snapshot):
        _out, trace = chaos_snapshot
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert {event["name"] for event in events} == {"campaign.spec"}
        assert len(events) == 2  # one span per spec
        assert {event["args"]["spec"] for event in events} == {
            "prob-crash",
            "torn-update",
        }

    def test_snapshot_is_deterministic(self, chaos_snapshot, tmp_path):
        first, _trace = chaos_snapshot
        second = tmp_path / "metrics2.jsonl"
        assert (
            main(
                [
                    "chaos",
                    "--specs",
                    "prob-crash,torn-update",
                    "--seeds",
                    "2",
                    "--iterations",
                    "150",
                    "--metrics",
                    str(second),
                ]
            )
            == 0
        )
        assert first.read_bytes() == second.read_bytes()

    def test_top_view_renders_to_stderr(self, tmp_path, capsys):
        code = main(
            [
                "chaos",
                "--specs",
                "prob-crash",
                "--seeds",
                "1",
                "--iterations",
                "100",
                "--metrics",
                str(tmp_path / "m.jsonl"),
                "--metrics-interval",
                "0",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "-- repro chaos --" in err
        assert "repro_campaign_cells_total" in err


class TestRunMetrics:
    def test_e4_exports_experiment_lines(self, tmp_path, capsys):
        out = tmp_path / "e4.jsonl"
        code = main(
            ["run", "e4", "--scale", "quick", "--no-plot", "--metrics", str(out)]
        )
        assert code == 0
        lines = load_snapshot_jsonl(out)
        assert len(lines) == 1
        assert lines[0]["kind"] == "experiment"
        assert lines[0]["id"] == "E4"
        assert lines[0]["passed"] is True
        assert lines[0]["metrics"]["lemma_6_4_holds"] is True

    def test_experiment_without_obs_notes_empty_snapshot(
        self, tmp_path, capsys
    ):
        out = tmp_path / "e1.jsonl"
        code = main(
            ["run", "e1", "--scale", "quick", "--no-plot", "--metrics", str(out)]
        )
        assert code == 0
        assert load_snapshot_jsonl(out) == []
        assert "none of the selected experiments" in capsys.readouterr().err


class TestSanitizeMetrics:
    def test_run_lines(self, tmp_path, capsys):
        out = tmp_path / "sanitize.jsonl"
        code = main(
            [
                "sanitize",
                "--presets",
                "e1",
                "--seeds",
                "1",
                "--metrics",
                str(out),
            ]
        )
        assert code == 0
        lines = load_snapshot_jsonl(out)
        assert len(lines) == 1
        assert lines[0]["kind"] == "run"
        assert lines[0]["findings"] == 0
        assert lines[0]["certificates_ok"] is True


class TestObsViewer:
    def test_text_rendering(self, chaos_snapshot, capsys):
        out, _trace = chaos_snapshot
        assert main(["obs", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "cell spec=prob-crash" in printed
        assert "aggregate" in printed
        assert "tau_histogram:" in printed
        assert "5 snapshot line(s)" in printed

    def test_prom_rendering(self, chaos_snapshot, capsys):
        out, _trace = chaos_snapshot
        assert main(["obs", str(out), "--format", "prom"]) == 0
        printed = capsys.readouterr().out
        assert "# TYPE repro_tau_max gauge" in printed
        assert "repro_tau_delay_bucket" in printed

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "nope.jsonl")]) == 2

    def test_invalid_snapshot_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["obs", str(bad)]) == 2


class TestTraceCli:
    def _spill(self, tmp_path):
        from repro.obs.causal import SPILL_SUFFIX, CausalRecorder

        rec = CausalRecorder(
            tmp_path / "spills" / f"a{SPILL_SUFFIX}",
            role="worker", trace_id="t1",
        )
        rec.record("worker.run", key="attempt-1", t0=1.0, t1=2.0)
        rec.record("ensemble.seed", key="ns|1", det=True, seed=1)
        rec.close()
        return tmp_path / "spills"

    def test_stitch_directory_both_modes(self, tmp_path, capsys):
        spills = self._spill(tmp_path)
        out = tmp_path / "trace.json"
        assert main(["trace", str(spills), "--out", str(out)]) == 0
        assert "stitched 2 span(s)" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]
        assert main(
            ["trace", str(spills), "--mode", "logical",
             "--out", str(out)]
        ) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert [e["name"] for e in events] == ["ensemble.seed"]

    def test_missing_path_and_empty_stitch_exit_codes(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            ["trace", str(empty), "--out", str(tmp_path / "t.json")]
        ) == 1
