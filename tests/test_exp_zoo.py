"""The zoo grid's durability and determinism contract, plus the E13
wrapper and CLI: byte-identical reports across ``--jobs`` values and
across journal kill/resume, partial reports covering exactly the
journaled prefix, payload round-trips, config validation and the
``python -m repro zoo`` entry point."""

import functools
import json

import pytest

from repro.cli import main
from repro.durable.journal import RunJournal
from repro.durable.signals import GracefulShutdown
from repro.errors import ConfigurationError, InterruptedRunError
from repro.experiments import e13_algorithm_zoo as zoo
from repro.experiments.e13_algorithm_zoo import (
    E13Config,
    ZooConfig,
    ZooWorkload,
    outcome_from_payload,
    outcome_to_payload,
    to_zoo_config,
)
from repro.experiments.grid import get_campaign

ZOO = get_campaign("zoo")


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


def _zoo_config(jobs=1):
    return ZooConfig(
        algorithms=("hogwild", "locked"),
        adversaries=("round-robin", "stale-attack"),
        seeds=(100, 101),
        workload=ZooWorkload(iterations=40),
        jobs=jobs,
    )


@functools.lru_cache(maxsize=None)
def _zoo_reference():
    """The uninterrupted serial zoo report every variant must match."""
    report = ZOO.run(_zoo_config())
    return report.to_json(), tuple(report.outcomes)


class TestZooDeterminism:
    def test_jobs_2_report_is_byte_identical(self):
        reference, _ = _zoo_reference()
        report = ZOO.run(_zoo_config(jobs=2))
        assert report.to_json() == reference

    def test_fingerprint_ignores_jobs_only(self):
        base = ZOO.fingerprint(_zoo_config())
        assert ZOO.fingerprint(_zoo_config(jobs=4)) == base
        different_seeds = ZooConfig(
            algorithms=("hogwild", "locked"),
            adversaries=("round-robin", "stale-attack"),
            seeds=(100, 102),
            workload=ZooWorkload(iterations=40),
        )
        assert ZOO.fingerprint(different_seeds) != base

    def test_outcome_payload_round_trips_through_json(self):
        _, outcomes = _zoo_reference()
        for outcome in outcomes:
            payload = json.loads(json.dumps(outcome_to_payload(outcome)))
            assert outcome_from_payload(payload) == outcome


class TestZooKillResume:
    @pytest.mark.parametrize("k", [1, 3])
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path, k):
        reference, _ = _zoo_reference()
        path = tmp_path / "journal.jsonl"
        config = _zoo_config()
        fingerprint = ZOO.fingerprint(config)
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            ZOO.run(
                config,
                journal=_TripAfter(journal, shutdown, k),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        assert resumed.total_completed >= k
        report = ZOO.run(_zoo_config(), journal=resumed)
        resumed.close()
        assert report.to_json() == reference

    def test_partial_report_covers_exactly_the_journaled_prefix(
        self, tmp_path
    ):
        _, reference_outcomes = _zoo_reference()
        path = tmp_path / "journal.jsonl"
        config = _zoo_config()
        fingerprint = ZOO.fingerprint(config)
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            ZOO.run(
                config,
                journal=_TripAfter(journal, shutdown, 3),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        partial = ZOO.partial_report(config, resumed)
        resumed.close()
        assert tuple(partial.outcomes) == reference_outcomes[:3]


class TestZooConfigValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            ZooConfig(
                algorithms=("nonexistent",),
                adversaries=("round-robin",),
                seeds=(1,),
            )

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            ZooConfig(
                algorithms=("hogwild",),
                adversaries=("nonexistent",),
                seeds=(1,),
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            ZooConfig(algorithms=(), adversaries=("round-robin",), seeds=(1,))
        with pytest.raises(ConfigurationError):
            ZooConfig(algorithms=("hogwild",), adversaries=(), seeds=(1,))
        with pytest.raises(ConfigurationError):
            ZooConfig(
                algorithms=("hogwild",), adversaries=("round-robin",), seeds=()
            )


class TestE13:
    def test_small_grid_passes(self):
        config = E13Config(
            algorithms=["epoch-sgd", "leashed"],
            adversaries=["round-robin", "contention-max"],
            iterations=40,
            num_seeds=1,
        )
        result = zoo.run(config)
        assert result.experiment_id == "E13"
        assert result.passed
        # One series point per adversary, per algorithm.
        assert set(result.series) == {"epoch-sgd", "leashed"}
        assert all(len(v) == 2 for v in result.series.values())

    def test_full_exceeds_quick(self):
        quick, full = E13Config.quick(), E13Config.full()
        assert full.num_seeds > quick.num_seeds
        assert full.iterations > quick.iterations

    def test_to_zoo_config_spans_the_declared_grid(self):
        config = to_zoo_config(E13Config(num_seeds=3, base_seed=50))
        assert config.seeds == (50, 51, 52)
        assert set(config.algorithms) == set(E13Config().algorithms)


class TestZooCli:
    ARGS = [
        "zoo",
        "--algorithms",
        "hogwild,locked",
        "--adversaries",
        "round-robin,stale-attack",
        "--seeds",
        "2",
        "--iterations",
        "40",
    ]

    def test_zoo_writes_reports_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "zoo"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert (out / "zoo_report.json").exists()
        assert (out / "zoo_report.txt").exists()
        payload = json.loads((out / "zoo_report.json").read_text())
        assert payload["passed"] is True
        assert len(payload["outcomes"]) == 2 * 2 * 2
        assert "Algorithm zoo" in capsys.readouterr().out

    def test_unknown_algorithm_exits_2(self, tmp_path, capsys):
        code = main(
            ["zoo", "--algorithms", "bogus", "--out", str(tmp_path / "z")]
        )
        assert code == 2

    def test_jobs_2_cli_report_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(self.ARGS + ["--out", str(serial)]) == 0
        assert main(self.ARGS + ["--out", str(parallel), "--jobs", "2"]) == 0
        assert (serial / "zoo_report.json").read_bytes() == (
            parallel / "zoo_report.json"
        ).read_bytes()

    def test_journal_resume_cli_matches_fresh(self, tmp_path):
        fresh, journaled = tmp_path / "fresh", tmp_path / "journaled"
        journal = tmp_path / "zoo.jsonl"
        assert main(self.ARGS + ["--out", str(fresh)]) == 0
        assert (
            main(
                self.ARGS
                + ["--out", str(journaled), "--journal", str(journal)]
            )
            == 0
        )
        assert journal.exists()
        # Resuming from the complete journal recomputes nothing and still
        # emits identical bytes.
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
        reference = (fresh / "zoo_report.json").read_bytes()
        assert (journaled / "zoo_report.json").read_bytes() == reference
        assert (resumed / "zoo_report.json").read_bytes() == reference
