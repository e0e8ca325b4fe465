"""The campaign registry's shared paths: a kind registered at run time
gets a CLI subcommand, a serve kind, a journaled ``--resume`` and a
partial report with no edit to ``cli.py`` or ``serve/specs.py``; the
registry's order and lookups; and the ``chaos --trace`` recorder is
never left installed by an early exit."""

import functools
import json
import signal
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.cli import main
from repro.durable.journal import RunJournal
from repro.errors import ConfigurationError
from repro.experiments import grid
from repro.experiments.grid import (
    Campaign,
    Cell,
    campaign_names,
    comma_names,
    get_campaign,
    grid_seeds,
    register_campaign,
    str_list,
)
from repro.obs.spans import get_span_recorder, trace_span
from repro.serve.specs import execute_spec, job_kinds, parse_job_spec


@dataclass(frozen=True)
class ToyConfig:
    words: Tuple[str, ...]
    seeds: Tuple[int, ...]
    jobs: int = 1


def _toy_worker(word, seed):
    return {"word": word, "seed": seed, "score": len(word) * seed}


@dataclass
class ToyReport:
    outcomes: list

    @property
    def passed(self):
        return all(o["score"] < 100 for o in self.outcomes)

    def render(self):
        rows = [f"{o['word']} seed={o['seed']} score={o['score']}" for o in self.outcomes]
        return "\n".join(rows + [f"verdict: {'PASS' if self.passed else 'FAIL'}"])

    def to_json(self):
        return json.dumps({"outcomes": self.outcomes}, indent=2, sort_keys=True) + "\n"


class ToyCampaign(Campaign):
    name = "toy"
    help = "score words over seeds"
    report_name = "toy_report"
    cli_seeds = (3, 1)
    seeds_per = "word"
    cells_metric = ("repro_toy_cells_total", "toy cells finished")
    metrics_help = "write a per-cell snapshot JSONL here"
    serve_params = {
        "words": (("a", "bb"), str_list),
        "seeds": (2, int),
        "base_seed": (1, int),
    }

    def build(self, params, jobs=1, collect_obs=False):
        if not params["words"]:
            raise ConfigurationError("toy needs at least one word")
        return ToyConfig(tuple(params["words"]), grid_seeds(params), jobs)

    def cells(self, config):
        for word in config.words:
            yield Cell(f"word/{word}", functools.partial(_toy_worker, word), (word,))

    def cell_span(self, config, cell):
        return trace_span("toy.cell", word=cell.key[0])

    def encode(self, outcome):
        return dict(outcome)

    def decode(self, payload):
        return dict(payload)

    def report(self, config, outcomes):
        return ToyReport(list(outcomes))

    def snapshot_lines(self, report):
        return [{"kind": "cell", **o} for o in report.outcomes]

    def add_arguments(self, parser):
        parser.add_argument("--words", default="a,bb,ccc")

    def params_from_args(self, args):
        return {
            "words": comma_names(args.words),
            "seeds": args.seeds,
            "base_seed": args.base_seed,
        }


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
        assert get_span_recorder() is None

    def test_trace_written_on_success(self, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "chaos", "--specs", "none", "--seeds", "1",
                "--iterations", "150", "--trace", str(trace),
            ]
        )
        assert code == 0
        assert get_span_recorder() is None
        events = json.loads(trace.read_text())["traceEvents"]
        assert [event["name"] for event in events] == ["campaign.spec"]
