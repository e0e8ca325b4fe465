"""Throughput of every registered zoo algorithm on the fast path.

Not a paper artifact — this pins the cost of the ``Algorithm`` seam:
each registered variant runs its standard workload through
``Simulator.run_fast()`` (tracing elided, no iteration records) and the
measured steps/sec land in ``benchmarks/results/BENCH_zoo.json`` so the
per-variant perf trajectory accumulates across PRs (CI uploads the file
as an artifact).  Relative numbers are the interesting part: locked
spends steps spinning, leashed re-CASes, so their steps/sec buys fewer
iterations — the report records both rates.
"""

import json
import pathlib
import time

import numpy as np

from repro.core.algorithm import algorithm_names, build_zoo_simulation, get_algorithm
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.policy import TraceConfig
from repro.sched.round_robin import RoundRobinScheduler

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DIM = 4
THREADS = 4
ITERATIONS = 400
STEP_SIZE = 0.05
SEED = 11


def _time_algorithm(name: str) -> dict:
    """Best-of-3 fast-path rate for one algorithm's standard workload."""
    best_steps_per_sec = 0.0
    steps = 0
    for _ in range(3):
        objective = IsotropicQuadratic(dim=DIM, noise=GaussianNoise(0.2))
        sim, _model, _x0 = build_zoo_simulation(
            get_algorithm(name),
            objective,
            RoundRobinScheduler(),
            num_threads=THREADS,
            step_size=STEP_SIZE,
            iterations=ITERATIONS,
            x0=np.full(DIM, 2.0),
            seed=SEED,
            trace_config=TraceConfig.off(),
        )
        start = time.perf_counter()
        steps = sim.run_fast()
        elapsed = time.perf_counter() - start
        best_steps_per_sec = max(best_steps_per_sec, steps / elapsed)
    return {
        "steps": steps,
        "steps_per_sec": round(best_steps_per_sec, 1),
        "iterations_per_sec": round(
            best_steps_per_sec * ITERATIONS / max(1, steps), 1
        ),
    }


def test_zoo_throughput():
    """Every registered algorithm completes its fast-path workload; the
    per-variant rates land in BENCH_zoo.json."""
    rates = {name: _time_algorithm(name) for name in algorithm_names()}
    for name, rate in rates.items():
        assert rate["steps"] > 0, f"{name} took no steps"

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "zoo.steps_per_sec",
        "workload": (
            f"dim={DIM}, {THREADS} threads, T={ITERATIONS}, round-robin, "
            "run_fast (tracing elided, no iteration records)"
        ),
        "algorithms": rates,
        "unix_time": int(time.time()),
    }
    out = RESULTS_DIR / "BENCH_zoo.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [
        f"{name}: {rate['steps_per_sec']:,.0f} steps/s ({rate['steps']} steps)"
        for name, rate in rates.items()
    ]
    print("\n" + "\n".join(lines))
