"""Cost of self-healing: detection overhead and rollback price.

Not a paper artifact — this pins what the heal layer costs:

* **detection overhead** — ``run_with_healing`` under the fault-free
  plan vs a plain ``run_fast`` of the same workload.  The delta is the
  chunking + detector-panel + checkpoint-capture tax paid even when
  nothing ever goes wrong.
* **rollback price** — the same workload under the ``nan-poison`` plan,
  where every corruption forces a detect → replay-restore → retry
  round trip.

Both land in ``benchmarks/results/BENCH_heal.json`` (CI uploads it as
an artifact) so the heal-path perf trajectory accumulates across PRs.
"""

import json
import pathlib
import time

import numpy as np

from repro.core.algorithm import build_zoo_simulation, get_algorithm
from repro.experiments.e14_resilience import heal_plan_specs
from repro.heal.rollback import run_with_healing
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.policy import TraceConfig
from repro.sched.registry import build_scheduler

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DIM = 2
THREADS = 4
ITERATIONS = 200
STEP_SIZE = 0.05
SEED = 8000
ALGORITHM = "epoch-sgd"


def _objective() -> IsotropicQuadratic:
    return IsotropicQuadratic(dim=DIM, noise=GaussianNoise(0.2))


def _time_plain() -> dict:
    """Best-of-3 plain fast path — the no-healing baseline."""
    best = 0.0
    steps = 0
    for _ in range(3):
        sim, _model, _x0 = build_zoo_simulation(
            get_algorithm(ALGORITHM),
            _objective(),
            build_scheduler("random", seed=SEED),
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
        best = max(best, steps / elapsed)
    return {"steps": steps, "steps_per_sec": round(best, 1)}


def _time_healed(plan: str) -> dict:
    """Best-of-3 healed run under a named plan."""
    best = 0.0
    result = None
    for _ in range(3):
        start = time.perf_counter()
        result = run_with_healing(
            ALGORITHM,
            _objective(),
            heal_plan_specs()[plan],
            num_threads=THREADS,
            step_size=STEP_SIZE,
            iterations=ITERATIONS,
            x0=np.full(DIM, 2.0),
            seed=SEED,
        )
        elapsed = time.perf_counter() - start
        best = max(best, result.steps / elapsed)
    return {
        "steps": result.steps,
        "steps_per_sec": round(best, 1),
        "rollbacks": result.report.rollbacks,
        "health": result.report.health,
    }


def test_heal_overhead():
    """Healing finishes the workload under both plans; the overhead
    ratios land in BENCH_heal.json."""
    plain = _time_plain()
    fault_free = _time_healed("none")
    poisoned = _time_healed("nan-poison")

    assert plain["steps"] > 0
    assert fault_free["health"] == "healthy"
    assert poisoned["rollbacks"] >= 1, "nan-poison exercised no rollback"

    detection_overhead = plain["steps_per_sec"] / max(
        1e-9, fault_free["steps_per_sec"]
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "heal.steps_per_sec",
        "workload": (
            f"{ALGORITHM}, dim={DIM}, {THREADS} threads, T={ITERATIONS}, "
            "random adversary, chunked run_fast (check_interval=64)"
        ),
        "plain_run_fast": plain,
        "healed_fault_free": fault_free,
        "healed_nan_poison": poisoned,
        "detection_overhead_x": round(detection_overhead, 2),
        "unix_time": int(time.time()),
    }
    out = RESULTS_DIR / "BENCH_heal.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nplain: {plain['steps_per_sec']:,.0f} steps/s | "
        f"healed(fault-free): {fault_free['steps_per_sec']:,.0f} steps/s "
        f"({detection_overhead:.2f}x overhead) | "
        f"healed(nan-poison): {poisoned['steps_per_sec']:,.0f} steps/s, "
        f"{poisoned['rollbacks']} rollback(s)"
    )
