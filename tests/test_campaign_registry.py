"""The campaign registry's shared paths: a kind registered at run time
declares an outcome dataclass and a report, and gets the journal codec,
the rendered and JSON report, a CLI subcommand, a serve kind, a
journaled ``--resume`` and a partial report with no edit to ``cli.py``
or ``serve/specs.py``; the registry's order and lookups; and the
``chaos --trace`` recorder: never left installed by an early exit, and
its spill's logical stitch the same under any ``--jobs``."""

import functools
import json
import signal
from dataclasses import asdict, dataclass
from typing import Tuple

import pytest

from repro.cli import main
from repro.durable.journal import RunJournal
from repro.errors import ConfigurationError
from repro.experiments import grid
from repro.experiments.grid import (
    Campaign,
    Cell,
    GridReport,
    Param,
    campaign_names,
    gate,
    get_campaign,
    grid_seeds,
    register_campaign,
)
from repro.obs.causal import get_causal_recorder, stitch_spills, trace_span
from repro.serve.specs import execute_spec, job_kinds, parse_job_spec


@dataclass(frozen=True)
class ToyConfig:
    words: Tuple[str, ...]
    seeds: Tuple[int, ...]
    jobs: int = 1


@dataclass(frozen=True)
class ToyOutcome:
    word: str
    seed: int
    score: int


def _toy_worker(word, seed):
    return ToyOutcome(word, seed, len(word) * seed)


@dataclass
class ToyReport(GridReport):
    title = "Toy scores"
    columns = (("word", "word"), ("seed", "seed"), ("score", "score"))
    table_rows = "outcomes"
    extras = ()

    @gate
    def scores_small(self):
        return all(o.score < 100 for o in self.outcomes)


class ToyCampaign(Campaign):
    name = "toy"
    help = "score words over seeds"
    report_name = "toy_report"
    params = (
        Param(
            "words", ("a", "bb"), lambda: ("a", "bb", "ccc"), "words to score",
            cli_default="a,bb,ccc",
        ),
    )
    cli_seeds = (3, 1)
    serve_seeds = (2, 1)
    seeds_per = "word"
    cells_metric = ("repro_toy_cells_total", "toy cells finished")
    metrics_help = "write a per-cell snapshot JSONL here"
    outcome_type = ToyOutcome

    def build(self, params, jobs=1, collect_obs=False):
        if not params["words"]:
            raise ConfigurationError("toy needs at least one word")
        return ToyConfig(tuple(params["words"]), grid_seeds(params), jobs)

    def cells(self, config):
        for word in config.words:
            yield Cell(f"word/{word}", functools.partial(_toy_worker, word), (word,))

    def cell_span(self, config, cell):
        return trace_span("toy.cell", word=cell.key[0])

    def report(self, config, outcomes):
        return ToyReport(list(outcomes))

    def snapshot_lines(self, report):
        return [{"kind": "cell", **asdict(o)} for o in report.outcomes]


@pytest.fixture
def toy():
    register_campaign(ToyCampaign)
    try:
        yield get_campaign("toy")
    finally:
        grid._REGISTRY.pop("toy")


class _TripOnce:
    """Journal wrapper raising SIGTERM once ``k`` cells are recorded."""

    def __init__(self, journal, k):
        self._journal, self._k = journal, k

    def __getattr__(self, name):
        return getattr(self._journal, name)

    def record(self, namespace, seed, payload):
        self._journal.record(namespace, seed, payload)
        if self._journal.total_completed == self._k:
            signal.raise_signal(signal.SIGTERM)


class TestToyCampaign:
    def test_cli_subcommand_reports_and_snapshots(self, toy, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        argv = ["toy", "--words", "a,bb", "--seeds", "2", "--out", str(tmp_path)]
        assert main([*argv, "--metrics", str(metrics)]) == 0
        report = json.loads((tmp_path / "toy_report.json").read_text())
        assert [(o["word"], o["seed"]) for o in report["outcomes"]] == [
            ("a", 1), ("a", 2), ("bb", 1), ("bb", 2),
        ]
        assert "verdict: PASS" in capsys.readouterr().out
        assert len(metrics.read_text().splitlines()) == 4
        assert main(["toy", "--words", ""]) == 2  # config error

    def test_interrupt_flushes_partial_and_resume_matches(
        self, toy, tmp_path, monkeypatch, capsys
    ):
        journal = str(tmp_path / "journal.jsonl")
        out = tmp_path / "out"
        real_open = RunJournal.open
        with monkeypatch.context() as patch:
            patch.setattr(
                RunJournal,
                "open",
                lambda path, fingerprint, resume=False: _TripOnce(
                    real_open(path, fingerprint, resume=resume), 4
                ),
            )
            assert main(["toy", "--journal", journal, "--out", str(out)]) == 130
        err = capsys.readouterr().err
        assert "resume with:" in err
        partial = json.loads((out / "toy_report.partial.json").read_text())
        assert len(partial["outcomes"]) == 4
        assert main(["toy", "--journal", journal, "--out", str(out), "--resume"]) == 0
        assert "resuming: 4 cell(s) already journaled" in capsys.readouterr().err
        assert main(["toy", "--out", str(tmp_path / "ref")]) == 0
        assert (out / "toy_report.json").read_bytes() == (
            tmp_path / "ref" / "toy_report.json"
        ).read_bytes()

    def test_serve_kind(self, toy):
        assert "toy" in job_kinds()
        spec = parse_job_spec({"kind": "toy", "params": {"seeds": 1}})
        assert dict(spec.params) == {"words": ["a", "bb"], "seeds": 1, "base_seed": 1}
        with pytest.raises(ConfigurationError, match="unknown toy param"):
            parse_job_spec({"kind": "toy", "params": {"nope": 1}})
        cells = []
        result = execute_spec(spec.payload(), progress=cells.append)
        assert result["kind"] == "toy" and result["passed"] is True
        assert result["report"] == json.loads(
            toy.run(toy.build(spec.params)).to_json()
        )
        assert cells == [1, 2]

    def test_unregistered_after_the_test(self):
        assert "toy" not in campaign_names()


class TestRegistry:
    def test_builtin_order_and_lookup(self):
        assert campaign_names()[:5] == ("chaos", "sanitize", "zoo", "heal", "verify")
        assert get_campaign("zoo").name == "zoo"
        with pytest.raises(ConfigurationError, match="unknown campaign"):
            get_campaign("nope")

    def test_duplicate_and_nameless_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_campaign(type(get_campaign("chaos")))
        with pytest.raises(ConfigurationError, match="non-empty"):
            register_campaign(type("Nameless", (Campaign,), {}))


class TestChaosTraceRecorder:
    def test_early_exit_leaves_no_recorder_installed(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        code = main(
            [
                "chaos", "--specs", "none", "--seeds", "1",
                "--iterations", "20", "--trace", trace, "--resume",
            ]
        )
        assert code == 2
        assert get_causal_recorder() is None

    def test_trace_written_on_success(self, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "chaos", "--specs", "none", "--seeds", "1",
                "--iterations", "150", "--trace", str(trace),
            ]
        )
        assert code == 0
        assert get_causal_recorder() is None
        events = json.loads(trace.read_text())["traceEvents"]
        spans = sorted(event["name"] for event in events if event["ph"] == "X")
        assert spans == ["campaign.spec", "ensemble.chunk", "ensemble.seed"]

    def test_spill_stitches_the_same_under_any_jobs(self, tmp_path):
        argv = [
            "chaos", "--specs", "none,prob-crash", "--seeds", "2",
            "--iterations", "100",
        ]
        plain = tmp_path / "plain"
        assert main([*argv, "--out", str(plain)]) == 0
        logical = []
        for jobs in ("1", "2"):
            trace, out = tmp_path / f"trace-{jobs}.json", tmp_path / f"out-{jobs}"
            code = main(
                [*argv, "--jobs", jobs, "--trace", str(trace), "--out", str(out)]
            )
            assert code == 0
            assert get_causal_recorder() is None
            spill = tmp_path / f"trace-{jobs}.spans.jsonl"
            stitched = stitch_spills([spill], mode="logical")
            logical.append(json.dumps(stitched, sort_keys=True))
            events = json.loads(trace.read_text())["traceEvents"]
            specs = [e["args"]["spec"] for e in events if e["name"] == "campaign.spec"]
            assert specs == ["none", "prob-crash"]
            for name in ("chaos_report.json", "chaos_report.txt"):
                assert (out / name).read_bytes() == (plain / name).read_bytes()
        assert json.loads(logical[0])["traceEvents"]
        assert logical[0] == logical[1]
