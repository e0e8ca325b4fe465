"""Shared benchmark plumbing.

Each bench runs one experiment driver (quick preset by default; set
``REPRO_BENCH_SCALE=full`` for the EXPERIMENTS.md-scale runs), reports
its wall-clock through pytest-benchmark, prints the experiment's
table/figure, and writes it to ``benchmarks/results/<id>.txt`` so the
regenerated artifacts survive the run.

Monte-Carlo drivers that support process-parallel seed ensembles honor
``REPRO_BENCH_JOBS`` (or the ``--jobs`` pytest option): 1 = serial (the
default), 0 = one worker per CPU.  Results are bitwise identical for any
value — only wall-clock changes.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.cli import preset

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_JOBS_OVERRIDE = None


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=None,
        help="worker processes for ensemble-capable benches "
        "(overrides REPRO_BENCH_JOBS; 1 = serial, 0 = one per CPU)",
    )


def pytest_configure(config):
    global _JOBS_OVERRIDE
    _JOBS_OVERRIDE = config.getoption("--jobs", default=None)


def bench_scale() -> str:
    """'quick' (default) or 'full', from REPRO_BENCH_SCALE."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    return scale if scale in ("quick", "full") else "quick"


def bench_jobs() -> int:
    """Ensemble worker count: --jobs option, else REPRO_BENCH_JOBS, else 1."""
    if _JOBS_OVERRIDE is not None:
        return _JOBS_OVERRIDE
    try:
        return int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    except ValueError:
        return 1


def pick_config(config_cls):
    """The preset matching the requested scale, with the jobs knob set
    on configs that have one (the same step as ``repro run``)."""
    return preset(config_cls, bench_scale(), bench_jobs())


@pytest.fixture
def record_experiment():
    """Save and print an ExperimentResult produced by a bench."""

    def _record(result, logy: bool = False) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = result.render(plot=True, logy=logy)
        (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record


def run_experiment(benchmark, module, config, record, logy=False):
    """Benchmark one driver invocation (single round: these are
    experiments, not microbenchmarks) and persist its artifact."""
    result = benchmark.pedantic(
        lambda: module.run(config), rounds=1, iterations=1
    )
    record(result, logy=logy)
    assert result.passed, f"{result.experiment_id} acceptance criterion failed"
    return result
