"""Determinism of the benchmark's inputs and per-layer counts.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload is traced twice with the same seed at a reduced size; the
work counts must match exactly (times may not).  A different seed must
change the generated inputs.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, e5_quick, serve_mixed, zoo_grid  # noqa: E402

#: Work counts that must repeat exactly for a fixed seed.
COUNTS = (
    "runtime.steps",
    *(f"shm.ops.{op}" for op in common.OP_NAMES),
    "objectives.gradient_calls",
    "core.runs",
    "experiments.pool_starts",
    "durable.journal_records",
    "serve.cache_hits",
    "serve.cache_misses",
)


def tiny_e5():
    from repro.experiments.e5_upper_bound import E5Config

    return E5Config(
        horizons=[100, 300],
        num_runs=4,
        slowdown_delay_bounds=[2, 16],
        slowdown_runs=2,
        slowdown_iterations=1500,
        pilot_runs=1,
    )


SMALL_GRID = {
    "algorithms": "epoch-sgd,locked",
    "adversaries": "random,contention-max",
    "seeds": 2,
    "iterations": 60,
}


def _traced(workload: str, seed: int, tmp_path: pathlib.Path):
    workdir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    if workload == "e5-quick":
        outcome, _ = e5_quick.trace(seed, workdir, quick=tiny_e5)
    elif workload == "zoo-grid":
        outcome, _ = zoo_grid.trace(seed, workdir, **SMALL_GRID)
    else:
        outcome, _ = serve_mixed.trace(seed, workdir, count=4)
    assert outcome.failed == 0, outcome.notes
    assert set(outcome.metrics) == set(common.PER_LAYER_UNITS)
    return {name: outcome.metrics[name] for name in COUNTS}


@pytest.mark.parametrize("workload", ["e5-quick", "zoo-grid", "serve-mixed"])
def test_same_seed_gives_identical_layer_counts(workload, tmp_path):
    first = _traced(workload, 5, tmp_path)
    second = _traced(workload, 5, tmp_path)
    assert first == second
    assert any(first.values())


def test_seed_changes_generated_inputs():
    assert e5_quick.make_config(1).base_seed == e5_quick.make_config(1).base_seed
    assert e5_quick.make_config(1).base_seed != e5_quick.make_config(2).base_seed
    assert zoo_grid.base_seed(1) != zoo_grid.base_seed(2)
    assert serve_mixed.make_specs(1, 4) == serve_mixed.make_specs(1, 4)
    assert serve_mixed.make_specs(1, 4) != serve_mixed.make_specs(2, 4)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        command + ["--workload", "e5-quick", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
