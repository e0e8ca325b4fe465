"""Kill/resume properties of the durable run layer: campaigns and
sanitize grids interrupted after k of m cells resume to byte-identical
final reports (across --jobs values), partial reports cover exactly the
journaled cells, real signals drive GracefulShutdown, and the CLI wires
it all together (--journal/--resume flags, exit codes, partial flush)."""

import functools
import json
import os
import shlex
import signal

import pytest

from repro.analysis.presets import SanitizeConfig, run_sanitize, sanitize_presets
from repro.cli import build_parser, main
from repro.durable.journal import RunJournal
from repro.durable.signals import GracefulShutdown
from repro.errors import InterruptedRunError
from repro.experiments.grid import get_campaign
from repro.faults.campaign import (
    CampaignConfig,
    ChaosWorkload,
    preset_specs,
    run_campaign,
)

CHAOS = get_campaign("chaos")
SANITIZE = get_campaign("sanitize")


class _TripAfter:
    """Journal wrapper that requests shutdown once k cells are recorded —
    a deterministic stand-in for SIGTERM arriving mid-grid.  With no
    ``shutdown`` (a CLI command owns its own) it raises a real SIGTERM,
    which the command's ``GracefulShutdown`` handles before the next
    cell boundary."""

    def __init__(self, journal, shutdown, k):
        self._journal = journal
        self._shutdown = shutdown
        self._k = k

    def __getattr__(self, name):
        return getattr(self._journal, name)

    def record(self, namespace, seed, payload):
        self._journal.record(namespace, seed, payload)
        if self._journal.total_completed < self._k:
            return
        if self._shutdown is None:
            signal.raise_signal(signal.SIGTERM)
        else:
            self._shutdown.requested = True
            self._shutdown.signal_name = "SIGTERM"


def _campaign_config(jobs=1):
    specs = preset_specs()
    return CampaignConfig(
        specs=(specs["none"], specs["prob-crash"]),
        seeds=(1, 2, 3),
        workload=ChaosWorkload(iterations=60),
        jobs=jobs,
    )


@functools.lru_cache(maxsize=None)
def _campaign_reference():
    """The uninterrupted campaign report (bytes) every resume must match."""
    report = run_campaign(_campaign_config())
    return report.to_json(), tuple(report.outcomes)


class TestCampaignKillResume:
    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_interrupt_after_k_cells_resumes_byte_identical(
        self, tmp_path, k, jobs
    ):
        reference, _ = _campaign_reference()
        path = tmp_path / "journal.jsonl"
        config = _campaign_config(jobs)
        fingerprint = CHAOS.fingerprint(config)
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            run_campaign(
                config,
                journal=_TripAfter(journal, shutdown, k),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        assert resumed.total_completed >= k
        report = run_campaign(_campaign_config(), journal=resumed)
        resumed.close()
        assert report.to_json() == reference

    def test_partial_report_covers_exactly_the_journaled_prefix(
        self, tmp_path
    ):
        _, reference_outcomes = _campaign_reference()
        path = tmp_path / "journal.jsonl"
        config = _campaign_config()
        fingerprint = CHAOS.fingerprint(config)
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            run_campaign(
                config,
                journal=_TripAfter(journal, shutdown, 3),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        partial = CHAOS.partial_report(config, resumed)
        resumed.close()
        # The serial grid stops at the cell boundary right after the
        # trip: exactly 3 cells, and they are the reference's prefix.
        assert tuple(partial.outcomes) == reference_outcomes[:3]

    def test_journal_written_under_jobs_4_resumes_under_jobs_1(
        self, tmp_path
    ):
        reference, _ = _campaign_reference()
        path = tmp_path / "journal.jsonl"
        parallel_config = _campaign_config(jobs=4)
        fingerprint = CHAOS.fingerprint(parallel_config)
        # The fingerprint must not depend on jobs, or cross-jobs resume
        # would be refused.
        assert fingerprint == CHAOS.fingerprint(_campaign_config())
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            run_campaign(
                parallel_config,
                journal=_TripAfter(journal, shutdown, 2),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        report = run_campaign(_campaign_config(jobs=1), journal=resumed)
        resumed.close()
        assert report.to_json() == reference


def _sanitize_grid():
    presets = sanitize_presets()
    return (presets["racy"], presets["e1"]), (1, 2)


@functools.lru_cache(maxsize=None)
def _sanitize_reference():
    chosen, seeds = _sanitize_grid()
    return run_sanitize(chosen, seeds=seeds).to_json()


class TestSanitizeKillResume:
    @pytest.mark.parametrize("k", [1, 3])
    def test_interrupt_after_k_cells_resumes_byte_identical(self, tmp_path, k):
        chosen, seeds = _sanitize_grid()
        path = tmp_path / "journal.jsonl"
        fingerprint = SANITIZE.fingerprint(SanitizeConfig(chosen, seeds))
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            run_sanitize(
                chosen,
                seeds=seeds,
                journal=_TripAfter(journal, shutdown, k),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        assert resumed.total_completed >= k
        report = run_sanitize(chosen, seeds=seeds, journal=resumed)
        resumed.close()
        assert report.to_json() == _sanitize_reference()

    def test_parallel_interrupt_resumes_byte_identical(self, tmp_path):
        chosen, seeds = _sanitize_grid()
        path = tmp_path / "journal.jsonl"
        fingerprint = SANITIZE.fingerprint(SanitizeConfig(chosen, seeds))
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            run_sanitize(
                chosen,
                seeds=seeds,
                jobs=4,
                journal=_TripAfter(journal, shutdown, 1),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        report = run_sanitize(chosen, seeds=seeds, journal=resumed)
        resumed.close()
        assert report.to_json() == _sanitize_reference()

    def test_partial_sanitize_report_counts_journaled_cells(self, tmp_path):
        chosen, seeds = _sanitize_grid()
        path = tmp_path / "journal.jsonl"
        fingerprint = SANITIZE.fingerprint(SanitizeConfig(chosen, seeds))
        journal = RunJournal.open(path, fingerprint)
        shutdown = GracefulShutdown(install=False)
        with pytest.raises(InterruptedRunError):
            run_sanitize(
                chosen,
                seeds=seeds,
                journal=_TripAfter(journal, shutdown, 2),
                shutdown=shutdown,
            )
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        partial = SANITIZE.partial_report(SanitizeConfig(chosen, seeds), resumed)
        resumed.close()
        assert len(partial.runs) == 2
        assert [run.label for run in partial.runs] == [
            "racy/random/seed=1",
            "racy/random/seed=2",
        ]


def _let_signal_land():
    """Give the interpreter a bytecode boundary to run the handler on."""
    for _ in range(100):
        pass


class TestGracefulShutdownSignals:
    def test_sigint_requests_stop_then_check_raises(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown() as shutdown:
            assert not shutdown.requested
            os.kill(os.getpid(), signal.SIGINT)
            _let_signal_land()
            assert shutdown.requested
            assert shutdown.signal_name == "SIGINT"
            with pytest.raises(InterruptedRunError):
                shutdown.check()
        assert signal.getsignal(signal.SIGINT) is before

    def test_second_sigint_raises_keyboard_interrupt(self):
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGINT)
            _let_signal_land()
            assert shutdown.requested
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
                _let_signal_land()

    def test_sigterm_requests_stop(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGTERM)
            _let_signal_land()
            assert shutdown.requested
            assert shutdown.signal_name == "SIGTERM"
        assert signal.getsignal(signal.SIGTERM) is before


_CLI_ARGS = [
    "--specs", "none,prob-crash",
    "--seeds", "2",
    "--iterations", "60",
]

#: kind -> (a four-cell grid, report stem, the report's cell list key).
_CLI_GRIDS = {
    "chaos": (_CLI_ARGS, "chaos_report", "outcomes"),
    "sanitize": (
        ["--presets", "e1,racy", "--seeds", "2"], "analysis_report", "runs"
    ),
    "zoo": (
        [
            "--algorithms", "epoch-sgd,hogwild", "--adversaries", "random",
            "--seeds", "2", "--iterations", "30",
        ],
        "zoo_report",
        "outcomes",
    ),
    "heal": (
        [
            "--algorithms", "epoch-sgd", "--plans", "none,nan-poison",
            "--seeds", "2", "--iterations", "60",
        ],
        "heal_report",
        "outcomes",
    ),
    "verify": (
        [
            "--variants", "epoch-sgd,hogwild", "--seeds", "2",
            "--smt-engine", "finite", "--no-full-tree",
        ],
        "verify_report",
        "outcomes",
    ),
}


class TestCliJournalFlags:
    def test_resume_without_journal_is_exit_2(self, capsys):
        assert main(["chaos", "--resume", *_CLI_ARGS]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err
        assert main(["sanitize", "--resume", "--presets", "e1"]) == 2

    def test_fingerprint_mismatch_is_exit_2(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main(["chaos", *_CLI_ARGS, "--journal", journal]) in (0, 1)
        # A different grid must be refused, not silently merged.
        assert (
            main(
                [
                    "chaos", "--specs", "none", "--seeds", "3",
                    "--iterations", "60", "--journal", journal, "--resume",
                ]
            )
            == 2
        )
        assert "refusing to resume" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", list(_CLI_GRIDS))
    def test_interrupted_cli_flushes_partial_and_resumes_identically(
        self, tmp_path, monkeypatch, capsys, kind
    ):
        grid, stem, rows = _CLI_GRIDS[kind]
        # Spaces in the paths: the printed resume line must quote them.
        journal_path = str(tmp_path / "my dir" / "journal.jsonl")
        out_dir = tmp_path / "out dir"
        ref_dir = tmp_path / "ref"
        argv = [kind, *grid, "--journal", journal_path, "--out", str(out_dir)]
        real_open = RunJournal.open
        with monkeypatch.context() as patch:
            patch.setattr(
                RunJournal,
                "open",
                lambda path, fingerprint, resume=False: _TripAfter(
                    real_open(path, fingerprint, resume=resume), None, 2
                ),
            )
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 130
        partial = json.loads((out_dir / f"{stem}.partial.json").read_text())
        assert len(partial[rows]) == 2
        assert (out_dir / f"{stem}.partial.txt").exists()
        line = err.split("resume with:\n", 1)[1].splitlines()[0]
        words = shlex.split(line)
        assert words[:3] == ["python", "-m", "repro"]
        assert words[3:] == [*argv, "--resume"]
        parsed = build_parser().parse_args(words[3:])
        assert (parsed.journal, parsed.out) == (journal_path, str(out_dir))

        # Rerunning the printed invocation finishes the grid and must
        # produce the same bytes as a never-interrupted CLI run.
        resume_code = main(words[3:])
        reference_code = main([kind, *grid, "--out", str(ref_dir)])
        capsys.readouterr()
        assert resume_code == reference_code
        assert (out_dir / f"{stem}.json").read_bytes() == (
            ref_dir / f"{stem}.json"
        ).read_bytes()


class TestTornTailEveryOffset:
    """Satellite: the serve layer's crash paths (SIGKILLed workers) can
    tear the journal at *any* byte.  Property: truncating the final
    record at every byte offset yields exactly the documented
    classification — a clean shorter journal (cut at a record boundary
    or a complete-but-unterminated line) or one DUR001 warning (a real
    torn tail) — never corruption errors, and resuming from the torn
    journal reproduces the uninterrupted report byte-identically across
    --jobs 1/4."""

    def _full_journal(self, tmp_path):
        config = _campaign_config()
        fingerprint = CHAOS.fingerprint(config)
        path = tmp_path / "full.jsonl"
        journal = RunJournal.open(path, fingerprint)
        run_campaign(config, journal=journal)
        journal.close()
        return path.read_bytes(), fingerprint

    def test_classification_at_every_byte_offset(self, tmp_path):
        data, fingerprint = self._full_journal(tmp_path)
        assert data.endswith(b"\n")
        body = data[:-1].split(b"\n")
        last = body[-1] + b"\n"
        prefix = data[: len(data) - len(last)]
        torn_path = tmp_path / "torn.jsonl"
        for cut in range(len(last)):
            torn_path.write_bytes(prefix + last[:cut])
            resumed = RunJournal.open(torn_path, fingerprint, resume=True)
            rules = [f.rule for f in resumed.findings]
            resumed.close()
            if cut == 0 or cut == len(last) - 1:
                # Record boundary, or a complete JSON line missing only
                # its newline: nothing was torn mid-record.
                assert rules == [], f"offset {cut}: {rules}"
            else:
                assert rules == ["DUR001"], f"offset {cut}: {rules}"

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_resume_from_torn_tail_byte_identical(self, tmp_path, jobs):
        reference, _ = _campaign_reference()
        data, fingerprint = self._full_journal(tmp_path)
        body = data[:-1].split(b"\n")
        last = body[-1] + b"\n"
        prefix = data[: len(data) - len(last)]
        # Representative offsets spanning every classification class:
        # boundary cut, 1-byte tear, mid-record tear, all-but-newline.
        for cut in (0, 1, len(last) // 2, len(last) - 1):
            torn_path = tmp_path / f"torn-{jobs}-{cut}.jsonl"
            torn_path.write_bytes(prefix + last[:cut])
            journal = RunJournal.open(torn_path, fingerprint, resume=True)
            config = _campaign_config(jobs)
            report = run_campaign(config, journal=journal)
            journal.close()
            assert report.to_json() == reference, f"offset {cut}"

    def test_trace_truncated_at_every_byte_offset(self, tmp_path):
        """DUR002 twin for metric traces: a torn final line is recovered
        at every offset; complete records always survive intact."""
        from repro.metrics.serialize import dump_records, load_records
        from repro.runtime.events import IterationRecord

        records = [
            IterationRecord(
                time=10 * i, thread_id=i % 2, index=i, epoch=0,
                start_time=10 * i, read_start_time=10 * i,
                read_end_time=10 * i + 1, first_update_time=10 * i + 2,
                end_time=10 * i + 3, step_size=0.05,
            )
            for i in range(3)
        ]
        full = tmp_path / "trace.jsonl"
        dump_records(records, full)
        data = full.read_bytes()
        body = data[:-1].split(b"\n")
        last = body[-1] + b"\n"
        prefix = data[: len(data) - len(last)]
        torn_path = tmp_path / "torn-trace.jsonl"
        for cut in range(len(last)):
            torn_path.write_bytes(prefix + last[:cut])
            findings = []
            recovered = load_records(torn_path, findings=findings)
            rules = [f.rule for f in findings]
            if cut == 0 or cut == len(last) - 1:
                expect = len(records) - (1 if cut == 0 else 0)
                assert len(recovered) == expect, f"offset {cut}"
                assert rules == [], f"offset {cut}: {rules}"
            else:
                assert len(recovered) == len(records) - 1, f"offset {cut}"
                assert rules == ["DUR002"], f"offset {cut}: {rules}"
            # Whatever survived is the exact uncorrupted prefix.
            for got, want in zip(recovered, records):
                assert got == want
