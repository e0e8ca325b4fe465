"""Exact work-count gate over the repo benchmark's traced runs.

The paper measures time in shared-memory steps (Theorem 6.5, Corollary
6.7).  A traced ``perfbench/run.py`` run counts that work and the work
of every layer around it: steps, shared-memory ops, gradient calls,
runs, pool starts, journal appends, served attempts and cache hits.
For a fixed seed these counts repeat exactly, so they are gated
exactly: ``work_counts.json`` holds, per workload, every per-layer
metric of ``BENCHMARK.json`` whose unit is ``count`` (zeros included,
so a layer that starts doing work fails too), and each workload test
runs that workload traced and compares every count.

Run from the repository root (about 30 s on 2 CPUs)::

    python3 -m pytest benchmarks/bench_work_counts.py -q

A change that moves a count updates ``work_counts.json`` and says why
in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = json.loads(
    (pathlib.Path(__file__).parent / "work_counts.json").read_text()
)
SEED = 1
SECONDS = 5
#: ``serve.requests`` counts the benchmark client's 10 ms status polls,
#: so it follows the machine's speed: three traced ``serve-mixed`` runs
#: read 964, 955 and 872, the last under CPU load.  Every other count
#: was identical across repeated runs of each workload.
EXCLUDED = ("serve.requests",)


def counts(result):
    """The ``count`` metrics of a perfbench result, less :data:`EXCLUDED`."""
    found = {}
    for name, metric in result["metrics"].items():
        if metric["unit"] == "count" and name not in EXCLUDED:
            value = metric["value"]
            found[name] = int(value) if value == int(value) else value
    return found


def mismatches(expected, result):
    """``name: expected X, got Y`` for every count that differs, over
    the names of both sides: a count that appears or vanishes differs."""
    got = counts(result)
    return [
        f"{name}: expected {expected.get(name, 'missing')}, "
        f"got {got.get(name, 'missing')}"
        for name in sorted(set(expected) | set(got))
        if expected.get(name) != got.get(name)
    ]


def traced_run(workload):
    """The JSON result (last stdout line) of one traced perfbench run."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_work_counts(workload):
    result = traced_run(workload)
    assert result["correct"] is True and result["failed"] == 0, result
    assert mismatches(EXPECTED[workload], result) == []


def test_count_names_match_the_benchmark():
    """Every workload of ``BENCHMARK.json`` has every count metric, so a
    renamed metric cannot silently drop out of the gate."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        metric["name"]
        for metric in bench["per_layer"]
        if metric["unit"] == "count"
    } - set(EXCLUDED)
    assert set(EXPECTED) == {w["name"] for w in bench["workloads"]}
    for workload, expected in EXPECTED.items():
        assert set(expected) == names, workload


def _synthetic(expected, changed):
    """A perfbench-shaped result reading ``expected`` but for
    ``changed``, plus an excluded count and a timing beside them."""
    values = {**expected, "serve.requests": 964, **changed}
    metrics = {
        name: {"value": float(value), "unit": "count"}
        for name, value in values.items()
    }
    metrics["runtime.loop_s"] = {"value": 3.06, "unit": "s"}
    return {"correct": True, "failed": 0, "metrics": metrics}


def test_a_pool_per_cell_fails():
    expected = EXPECTED["zoo-grid"]
    result = _synthetic(expected, {"experiments.pool_starts": 35})
    assert mismatches(expected, result) == [
        "experiments.pool_starts: expected 1, got 35"
    ]


def test_an_extra_fsync_per_served_job_fails():
    expected = EXPECTED["serve-mixed"]
    appends = expected["durable.appends"] + expected["serve.attempts"]
    result = _synthetic(expected, {"durable.appends": appends})
    assert mismatches(expected, result) == [
        f"durable.appends: expected {expected['durable.appends']}, "
        f"got {appends}"
    ]


def test_a_count_that_appears_or_vanishes_fails():
    expected = EXPECTED["e5-quick"]
    result = _synthetic(
        {k: v for k, v in expected.items() if k != "core.runs"},
        {"runtime.resumes": 5},
    )
    assert mismatches(expected, result) == [
        "core.runs: expected 47, got missing",
        "runtime.resumes: expected missing, got 5",
    ]
