"""The resilience grid's durability and determinism contract, plus the
E14 wrapper and CLI: byte-identical reports across ``--jobs`` values and
across journal kill/resume, partial reports covering exactly the
journaled prefix, payload round-trips, config validation, heal metrics
lines and the ``python -m repro heal`` entry point."""

import functools
import hashlib
import json

import pytest

from repro.cli import main
from repro.durable.journal import RunJournal
from repro.durable.signals import GracefulShutdown
from repro.errors import ConfigurationError, InterruptedRunError
from repro.experiments.e14_resilience import (
    HealCampaign,
    HealGridConfig,
    HealWorkload,
    heal_plan_specs,
)
from repro.experiments.grid import get_campaign

HEAL = get_campaign("heal")


def _snapshot(outcomes):
    """The ``--metrics`` snapshot of a report over ``outcomes``."""
    return HEAL.snapshot_lines(HEAL.report(_heal_config(), list(outcomes)))


class _TripAfter:
    """Journal wrapper that requests shutdown once k cells are recorded —
    a deterministic stand-in for SIGTERM arriving mid-grid."""

    def __init__(self, journal, shutdown, k):
        self._journal = journal
        self._shutdown = shutdown
        self._k = k

    def completed(self, namespace):
        return self._journal.completed(namespace)

    def record(self, namespace, seed, payload):
        self._journal.record(namespace, seed, payload)
        if self._journal.total_completed >= self._k:
            self._shutdown.requested = True
            self._shutdown.signal_name = "SIGTERM"


def _heal_config(jobs=1):
    return HealGridConfig(
        algorithms=("epoch-sgd",),
        plans=("none", "nan-poison"),
        seeds=(8000, 8001),
        workload=HealWorkload(iterations=200),
        jobs=jobs,
    )


@functools.lru_cache(maxsize=None)
def _heal_reference():
    """The uninterrupted serial heal report every variant must match."""
    report = HEAL.run(_heal_config())
    return report.to_json(), tuple(report.outcomes)


class TestHealGridDeterminism:
    def test_jobs_2_report_is_byte_identical(self):
        reference, _ = _heal_reference()
        report = HEAL.run(_heal_config(jobs=2))
        assert report.to_json() == reference

    def test_grid_detects_rolls_back_and_recovers(self):
        _, outcomes = _heal_reference()
        poisoned = [o for o in outcomes if o.plan == "nan-poison"]
        assert all(o.health == "healthy" for o in outcomes)
        assert all(o.converged for o in outcomes)
        assert any(o.recovered for o in poisoned)
        assert all(o.rollbacks >= 1 for o in poisoned)
        clean = [o for o in outcomes if o.plan == "none"]
        assert all(o.rollbacks == 0 and not o.recovered for o in clean)

    def test_fingerprint_ignores_jobs_only(self):
        base = HEAL.fingerprint(_heal_config())
        assert HEAL.fingerprint(_heal_config(jobs=4)) == base
        different = HealGridConfig(
            algorithms=("epoch-sgd",),
            plans=("none", "nan-poison"),
            seeds=(8000, 8002),
            workload=HealWorkload(iterations=200),
        )
        assert HEAL.fingerprint(different) != base

    def test_outcome_payload_round_trips_through_json(self):
        _, outcomes = _heal_reference()
        for outcome in outcomes:
            payload = json.loads(json.dumps(HEAL.encode(outcome)))
            assert HEAL.decode(payload) == outcome

    def test_metrics_lines_are_pure_and_grid_ordered(self):
        _, outcomes = _heal_reference()
        lines = _snapshot(outcomes)
        assert [line["kind"] for line in lines[:-1]] == ["cell"] * (
            len(outcomes)
        )
        aggregate = lines[-1]
        assert aggregate["kind"] == "aggregate"
        assert aggregate["rollbacks"] == sum(o.rollbacks for o in outcomes)
        assert lines == _snapshot(outcomes)


class TestHealKillResume:
    @pytest.mark.parametrize("k", [1, 2])
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path, k):
        reference, _ = _heal_reference()
        path = tmp_path / "journal.jsonl"
        config = _heal_config()
        fingerprint = HEAL.fingerprint(config)
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            HEAL.run(
                config,
                journal=_TripAfter(journal, shutdown, k),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        assert resumed.total_completed >= k
        report = HEAL.run(_heal_config(), journal=resumed)
        resumed.close()
        assert report.to_json() == reference

    def test_partial_report_covers_exactly_the_journaled_prefix(
        self, tmp_path
    ):
        _, reference_outcomes = _heal_reference()
        path = tmp_path / "journal.jsonl"
        config = _heal_config()
        fingerprint = HEAL.fingerprint(config)
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            HEAL.run(
                config,
                journal=_TripAfter(journal, shutdown, 2),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        partial = HEAL.partial_report(config, resumed)
        resumed.close()
        assert tuple(partial.outcomes) == reference_outcomes[:2]


class TestHealConfigValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            HealGridConfig(
                algorithms=("bogus",), plans=("none",), seeds=(1,)
            )

    def test_unknown_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown plan"):
            HealGridConfig(
                algorithms=("epoch-sgd",), plans=("bogus",), seeds=(1,)
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            HealGridConfig(algorithms=(), plans=("none",), seeds=(1,))
        with pytest.raises(ConfigurationError):
            HealGridConfig(algorithms=("epoch-sgd",), plans=(), seeds=(1,))
        with pytest.raises(ConfigurationError):
            HealGridConfig(
                algorithms=("epoch-sgd",), plans=("none",), seeds=()
            )

    def test_every_named_plan_is_buildable(self):
        from repro.sched.random_sched import RandomScheduler

        for name, spec in sorted(heal_plan_specs().items()):
            engine = spec.build(
                RandomScheduler(seed=1), seed=1, num_threads=4
            )
            assert engine is not None, name


class TestE14:
    def test_quick_grid_passes_with_recoveries(self):
        from repro.experiments.e14_resilience import run

        config = HealGridConfig(
            algorithms=("epoch-sgd",),
            plans=("none", "nan-poison"),
            seeds=(8000, 8001),
        )
        result = run(config)
        assert result.experiment_id == "E14"
        assert result.passed
        assert "rolled back" in result.notes
        digest = hashlib.sha256(result.render(plot=False).encode()).hexdigest()
        assert digest == (
            "0c29fd0c6954dc7244cc72ba27a4c2022eb05111c4ed8dc1e34394619057aef4"
        )

    def test_quick_preset_spans_the_declared_grid(self):
        config = HealGridConfig.quick()
        assert config.plans == ("none", "bit-flip", "nan-poison", "dup-write")
        assert len(config.seeds) == HealCampaign.cli_seeds[0]

    def test_full_exceeds_quick(self):
        quick, full = HealGridConfig.quick(), HealGridConfig.full()
        assert len(full.plans) > len(quick.plans)
        assert len(full.seeds) > len(quick.seeds)


class TestHealCli:
    ARGS = [
        "heal",
        "--algorithms",
        "epoch-sgd",
        "--plans",
        "none,nan-poison",
        "--seeds",
        "2",
        "--iterations",
        "200",
    ]

    def test_heal_writes_reports_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "heal"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert (out / "heal_report.json").exists()
        assert (out / "heal_report.txt").exists()
        payload = json.loads((out / "heal_report.json").read_text())
        assert payload["passed"] is True
        assert payload["recovered_cells"] >= 1
        assert len(payload["outcomes"]) == 1 * 2 * 2
        assert "Resilience grid" in capsys.readouterr().out

    def test_unknown_plan_exits_2(self, tmp_path, capsys):
        code = main(
            ["heal", "--plans", "bogus", "--out", str(tmp_path / "h")]
        )
        assert code == 2
        assert "unknown plan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--threads", "0"], "threads must be >= 1"),
            (["--iterations", "-5"], "iterations must be >= 0"),
            (["--adversary", "bogus"], "unknown adversary 'bogus'"),
        ],
    )
    def test_workload_out_of_range_exits_2(self, flags, error, capsys):
        """Checked when the config is built, not in the first worker."""
        assert main(["heal", "--algorithms", "epoch-sgd", *flags]) == 2
        assert error in capsys.readouterr().err

    def test_jobs_2_cli_report_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(self.ARGS + ["--out", str(serial)]) == 0
        assert main(self.ARGS + ["--out", str(parallel), "--jobs", "2"]) == 0
        assert (serial / "heal_report.json").read_bytes() == (
            parallel / "heal_report.json"
        ).read_bytes()

    def test_journal_resume_cli_matches_fresh(self, tmp_path):
        fresh, journaled = tmp_path / "fresh", tmp_path / "journaled"
        journal = tmp_path / "heal.jsonl"
        assert main(self.ARGS + ["--out", str(fresh)]) == 0
        assert (
            main(
                self.ARGS
                + ["--out", str(journaled), "--journal", str(journal)]
            )
            == 0
        )
        assert journal.exists()
        resumed = tmp_path / "resumed"
        assert (
            main(
                self.ARGS
                + [
                    "--out",
                    str(resumed),
                    "--journal",
                    str(journal),
                    "--resume",
                ]
            )
            == 0
        )
        assert (fresh / "heal_report.json").read_bytes() == (
            resumed / "heal_report.json"
        ).read_bytes()

    def test_metrics_snapshot_written(self, tmp_path):
        metrics = tmp_path / "heal_metrics.jsonl"
        assert main(self.ARGS + ["--metrics", str(metrics)]) == 0
        lines = [
            json.loads(line)
            for line in metrics.read_text().splitlines()
            if line.strip()
        ]
        assert lines[-1]["kind"] == "aggregate"
        assert lines[-1]["rollbacks"] >= 1
