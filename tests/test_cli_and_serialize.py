"""Tests for the CLI and the trace serializer."""

import json
import re

import numpy as np
import pytest

from repro.cli import REGISTRY, build_parser, main
from repro.core.epoch_sgd import run_lock_free_sgd
from repro.errors import ConfigurationError
from repro.metrics.serialize import (
    dump_records,
    load_records,
    record_from_dict,
    record_to_dict,
)
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.random_sched import RandomScheduler
from repro.theory.contention import interval_contention, tau_max


class TestCli:
    def test_registry_covers_all_experiments(self):
        assert set(REGISTRY) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "E11", "E12", "E13", "E14", "E15", "F1", "A1", "A2",
        }

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in REGISTRY:
            assert key in out

    def test_run_help_names_every_experiment(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for key in REGISTRY:
            assert re.search(rf"\b{key}\b", out), key

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_f1_and_write_artifact(self, tmp_path, capsys):
        code = main(["run", "F1", "--out", str(tmp_path), "--no-plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        artifact = tmp_path / "F1.txt"
        assert artifact.exists()
        assert "update matrix" in artifact.read_text()

    def test_run_all_iterates_registry(self, tmp_path, capsys, monkeypatch):
        """`run all` visits every registered experiment (registry shrunk
        to the fast ones for the test)."""
        import repro.cli as cli

        small = {key: cli.REGISTRY[key] for key in ("F1",)}
        monkeypatch.setattr(cli, "REGISTRY", small)
        code = cli.main(["run", "all", "--out", str(tmp_path), "--no-plot"])
        assert code == 0
        assert (tmp_path / "F1.txt").exists()

    def test_experiment_titles_nonempty(self):
        from repro.cli import REGISTRY, _experiment_title

        for module, _config in REGISTRY.values():
            assert _experiment_title(module)

    def test_report_summarizes_artifacts(self, tmp_path, capsys):
        (tmp_path / "E1.txt").write_text("stuff\nverdict: PASS\n")
        (tmp_path / "E2.txt").write_text("stuff\nverdict: FAIL\n")
        code = main(["report", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1  # one failure
        assert "E1" in out and "PASS" in out
        assert "E2" in out and "FAIL" in out
        assert "missing" in out  # the other experiments

    def test_report_all_passing_exit_zero(self, tmp_path, capsys):
        (tmp_path / "E1.txt").write_text("verdict: PASS\n")
        assert main(["report", str(tmp_path)]) == 0

    def test_report_missing_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--scale", "huge"])


@pytest.fixture
def trace():
    objective = IsotropicQuadratic(dim=3, noise=GaussianNoise(0.4))
    result = run_lock_free_sgd(
        objective, RandomScheduler(seed=1), num_threads=3,
        step_size=0.05, iterations=40, x0=np.full(3, 2.0), seed=1,
    )
    return result.records


class TestSerialize:
    def test_roundtrip_preserves_fields(self, trace):
        for record in trace:
            clone = record_from_dict(record_to_dict(record))
            assert clone.index == record.index
            assert clone.thread_id == record.thread_id
            assert clone.start_time == record.start_time
            assert clone.first_update_time == record.first_update_time
            assert clone.end_time == record.end_time
            assert clone.step_size == record.step_size
            np.testing.assert_array_equal(clone.view, record.view)
            np.testing.assert_array_equal(clone.gradient, record.gradient)
            assert clone.applied == record.applied
            assert clone.update_times == record.update_times

    def test_roundtrip_preserves_contention_analysis(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = dump_records(trace, path)
        assert written == len(trace)
        loaded = load_records(path)
        assert tau_max(loaded) == tau_max(trace)
        np.testing.assert_array_equal(
            interval_contention(loaded), interval_contention(trace)
        )

    def test_file_is_json_lines(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_records(trace, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(trace)
        payload = json.loads(lines[0])
        assert "gradient" in payload and "start_time" in payload

    def test_blank_lines_skipped(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_records(trace[:2], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_records(path)) == 2

    def test_corrupt_json_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ConfigurationError, match="bad.jsonl:1"):
            load_records(path)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError):
            record_from_dict({"time": 1})

    def test_unknown_keys_ignored(self, trace):
        payload = record_to_dict(trace[0])
        payload["future_field"] = "whatever"
        clone = record_from_dict(payload)
        assert clone.index == trace[0].index
