"""Tests for the chaos campaign runner and its CLI surface: grid
execution, per-spec aggregation, deterministic byte-identical reports
(serial and parallel), and the ``python -m repro chaos`` command."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.grid import get_campaign
from repro.faults.campaign import (
    CampaignConfig,
    ChaosWorkload,
    FaultSpec,
    corruption_specs,
    preset_specs,
    run_campaign,
    summarize,
)
from repro.faults.spec import ProbabilisticCrashSpec

#: Small grid used across tests: faults on, everything converges fast.
_WORKLOAD = ChaosWorkload(iterations=120)


def _config(**overrides):
    defaults = dict(
        specs=(
            preset_specs()["none"],
            FaultSpec(
                "p", (ProbabilisticCrashSpec(rate=0.01, max_crashes=2),)
            ),
        ),
        seeds=(1, 2),
        workload=_WORKLOAD,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestCampaignGrid:
    def test_grid_covers_every_spec_seed_cell(self):
        report = run_campaign(_config())
        assert len(report.outcomes) == 4
        assert [(o.spec, o.seed) for o in report.outcomes] == [
            ("none", 1), ("none", 2), ("p", 1), ("p", 2),
        ]
        assert len(report.summaries) == 2

    def test_faultless_spec_is_a_clean_baseline(self):
        report = run_campaign(_config())
        baseline = next(s for s in report.summaries if s.spec == "none")
        assert baseline.survival_rate == 1.0
        assert baseline.mean_crashed == 0.0
        assert baseline.violations == 0

    def test_survivors_converge_with_monitors_clean(self):
        report = run_campaign(_config())
        assert report.clean
        assert report.all_converged
        assert report.passed
        assert report.render().endswith("verdict: PASS")

    def test_crashed_threads_are_respawned_and_counted(self):
        report = run_campaign(_config(seeds=(1, 2, 3, 4)))
        faulty = [o for o in report.outcomes if o.spec == "p"]
        assert any(o.crashed > 0 for o in faulty)
        for outcome in faulty:
            assert outcome.respawned == outcome.crashed
            assert outcome.threads == _WORKLOAD.num_threads + outcome.respawned

    def test_no_recovery_leaves_crashes_unrepaired(self):
        report = run_campaign(_config(recover=False, seeds=(1, 2, 3)))
        faulty = [o for o in report.outcomes if o.spec == "p"]
        assert any(o.crashed > 0 for o in faulty)
        assert all(o.respawned == 0 for o in faulty)
        # Lock freedom: survivors still converge without replacements.
        assert report.all_converged

    def test_crash_tally_does_not_depend_on_monitors(self):
        watched = run_campaign(_config(recover=False, seeds=(1, 2, 3)))
        unwatched = run_campaign(
            _config(recover=False, monitors=False, seeds=(1, 2, 3))
        )
        tallies = [o.crash_tally for o in watched.outcomes]
        assert any(tallies)
        assert [o.crash_tally for o in unwatched.outcomes] == tallies

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(specs=())
        with pytest.raises(ConfigurationError):
            _config(seeds=())

    def test_bad_ranges_rejected_when_built(self):
        with pytest.raises(ConfigurationError, match="check_interval"):
            _config(check_interval=0)
        with pytest.raises(ConfigurationError, match="threads"):
            ChaosWorkload(num_threads=0)
        with pytest.raises(ConfigurationError, match="iterations"):
            ChaosWorkload(iterations=-1)


class TestCampaignDeterminism:
    def test_rerun_produces_identical_bytes(self):
        first = run_campaign(_config())
        second = run_campaign(_config())
        assert first.to_json() == second.to_json()

    def test_parallel_identical_to_serial(self):
        serial = run_campaign(_config(seeds=(1, 2, 3, 4)))
        parallel = run_campaign(_config(seeds=(1, 2, 3, 4), jobs=2))
        assert parallel.to_json() == serial.to_json()

    def test_json_is_loadable_and_timestamp_free(self):
        payload = json.loads(run_campaign(_config()).to_json())
        assert set(payload) == {
            "summaries", "outcomes", "clean", "all_converged", "passed",
        }
        assert payload["passed"] is True
        keys = set().union(*(o.keys() for o in payload["outcomes"]))
        keys |= set().union(*(s.keys() for s in payload["summaries"]))
        # Determinism: nothing wall-clock-dependent is serialized.
        assert not {"time", "timestamp", "date", "duration"} & keys

    def test_diverged_cells_still_write_valid_json(self):
        # NaN-poisoned models end at a NaN distance; the report spells
        # it "NaN" instead of writing the bare token JSON does not allow.
        report = run_campaign(
            _config(specs=(corruption_specs()["nan-poison"],))
        )

        def reject(token):
            raise ValueError(f"bare {token} in the report")

        payload = json.loads(report.to_json(), parse_constant=reject)
        distances = [outcome["distance"] for outcome in payload["outcomes"]]
        assert distances == ["NaN", "NaN"]
        assert payload["passed"] is False


class TestPresets:
    def test_every_preset_builds_a_scheduler(self):
        from repro.sched.random_sched import RandomScheduler

        for name, spec in preset_specs().items():
            assert spec.name == name
            engine = spec.build(RandomScheduler(seed=0), seed=0)
            assert engine.name == name

    def test_summarize_groups_by_spec(self):
        report = run_campaign(_config())
        regrouped = summarize(report.outcomes)
        assert [s.spec for s in regrouped] == ["none", "p"]
        assert [s.runs for s in regrouped] == [2, 2]


class TestChaosCli:
    _ARGS = [
        "chaos", "--specs", "prob-crash", "--seeds", "2",
        "--iterations", "120",
    ]

    def test_chaos_command_passes_and_writes_artifacts(self, tmp_path, capsys):
        code = main(self._ARGS + ["--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert (tmp_path / "chaos_report.txt").read_text().rstrip().endswith(
            "verdict: PASS"
        )
        payload = json.loads((tmp_path / "chaos_report.json").read_text())
        assert payload["passed"] is True

    def test_chaos_reruns_are_byte_identical(self, tmp_path, capsys):
        main(self._ARGS + ["--out", str(tmp_path / "a")])
        main(self._ARGS + ["--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert (tmp_path / "a" / "chaos_report.json").read_bytes() == (
            tmp_path / "b" / "chaos_report.json"
        ).read_bytes()

    def test_unknown_spec_rejected(self, capsys):
        assert main(["chaos", "--specs", "no-such-fault"]) == 2
        assert "unknown fault spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--check-interval", "0", "check_interval"),
            ("--threads", "0", "threads"),
            ("--iterations", "-1", "iterations"),
        ],
    )
    def test_bad_range_is_a_usage_error(self, capsys, flag, value, field):
        assert main(self._ARGS + [flag, value]) == 2
        assert f"{field} must be >=" in capsys.readouterr().err

    def test_no_monitors_no_recovery_flags(self, capsys):
        code = main(
            self._ARGS
            + ["--no-monitors", "--no-recovery", "--seeds", "1"]
        )
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out


class TestLineageAccounting:
    """Respawn denials and per-lineage crash tallies surface in rendered
    campaign reports and survive the journal codec (satellite of the
    recovery report)."""

    def _denied_report(self):
        config = _config(
            specs=(
                FaultSpec(
                    "crashy",
                    (ProbabilisticCrashSpec(rate=0.05, max_crashes=3),),
                ),
            ),
            seeds=(1, 2, 3),
            max_respawns=0,
        )
        return run_campaign(config)

    def test_respawn_denied_counted_and_rendered(self):
        report = self._denied_report()
        denied = sum(o.respawn_denied for o in report.outcomes)
        crashed = sum(o.crashed for o in report.outcomes)
        assert crashed >= 1, "crash spec never fired; rates too low"
        assert denied == crashed  # zero respawn budget denies every one
        text = report.render()
        assert "denied" in text.splitlines()[1]
        assert any(
            line.startswith("LINEAGES spec=crashy") for line in text.splitlines()
        ), text
        summary = next(s for s in report.summaries if s.spec == "crashy")
        assert summary.respawn_denied == denied

    def test_crash_tally_lists_each_crashed_lineage(self):
        report = self._denied_report()
        for outcome in report.outcomes:
            assert sum(c for _tid, c in outcome.crash_tally) == outcome.crashed
            for thread_id, count in outcome.crash_tally:
                assert 0 <= thread_id and count >= 1

    def test_lineage_fields_survive_the_journal_codec(self):
        chaos = get_campaign("chaos")
        report = self._denied_report()
        for outcome in report.outcomes:
            payload = json.loads(json.dumps(chaos.encode(outcome)))
            rebuilt = chaos.decode(payload)
            assert rebuilt.respawn_denied == outcome.respawn_denied
            assert rebuilt.crash_tally == outcome.crash_tally

    def test_json_report_carries_the_new_fields(self):
        report = self._denied_report()
        payload = json.loads(report.to_json())
        assert all("respawn_denied" in o for o in payload["outcomes"])
        assert all("crash_tally" in o for o in payload["outcomes"])
        assert any(s["respawn_denied"] > 0 for s in payload["summaries"])

    def test_clean_campaign_prints_no_lineage_lines(self):
        report = run_campaign(_config())
        lines = report.render().splitlines()
        # The baseline grid has no denials and no repeat-crash lineage,
        # so the LINEAGES detail stays out of the report.
        assert not any(line.startswith("LINEAGES") for line in lines)
