"""Regression bench: telemetry off must be free.

The observability layer's contract (DESIGN.md §13) is that an
uninstrumented run pays nothing: ``Simulator.run_fast`` keeps its elided
hot loop, per-step work is never metered, and attaching ``None`` (the
one "no metrics" value) or nothing at all leaves the steps/sec of the
default EpochSGD + round-robin workload within noise of the pre-obs
baseline.

This bench pins that contract.  Three variants run interleaved (each
side takes its best over several rounds, so a noisy-neighbor window
penalizes all alike):

* ``bare``  — no ``attach_metrics`` call at all (the seed baseline);
* ``null``  — ``attach_metrics(None)`` (what library code passes when
  the CLI gave no ``--metrics``);
* ``live``  — a real :class:`~repro.obs.registry.MetricsRegistry`
  (bulk counters only; allowed a little slack but still cheap).

The measured numbers land in ``benchmarks/results/
BENCH_obs_overhead.json`` so the overhead trajectory accumulates
across PRs alongside BENCH_micro_substrate.json.
"""

import json
import pathlib
import time

import numpy as np

from repro.core.epoch_sgd import EpochSGDProgram
from repro.obs.registry import MetricsRegistry
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.policy import TraceConfig
from repro.runtime.simulator import Simulator
from repro.sched.round_robin import RoundRobinScheduler
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``attach_metrics(None)`` steps/sec must stay within this factor of
#: the bare baseline.  Generous to absorb CI jitter: the real bound is
#: ~1.0 (the hot loop is byte-identical; only setup differs by one
#: attach call).
NULL_TOLERANCE = 0.85

#: A live registry meters nothing per step (bulk increments at run
#: exit), so even instrumented runs must stay close to bare.
LIVE_TOLERANCE = 0.70


def _workload() -> Simulator:
    """The BENCH_micro_substrate workload: 4 EpochSGD threads, dim=4,
    round-robin, tracing elided — run_fast's best case."""
    objective = IsotropicQuadratic(dim=4, noise=GaussianNoise(0.3))
    trace_config = TraceConfig.off()
    memory = SharedMemory(record_log=trace_config.record_log)
    model = AtomicArray.allocate(memory, objective.dim, name="model")
    model.load(np.full(objective.dim, 2.0))
    counter = AtomicCounter.allocate(memory, name="iteration_counter")
    sim = Simulator(
        memory, RoundRobinScheduler(), seed=1, trace_config=trace_config
    )
    for thread_index in range(4):
        sim.spawn(
            EpochSGDProgram(
                model=model,
                counter=counter,
                objective=objective,
                step_size=0.02,
                max_iterations=400,
                record_iterations=trace_config.record_iterations,
            ),
            name=f"worker-{thread_index}",
        )
    return sim


def _time_run(attach: bool, metrics=None) -> float:
    """One timed run_fast execution; returns steps/sec.  Without
    ``attach`` no ``attach_metrics`` call is made; with it, ``metrics``
    (``None`` or a live registry) is attached."""
    sim = _workload()
    if attach:
        sim.attach_metrics(metrics)
    start = time.perf_counter()
    sim.run_fast()
    elapsed = time.perf_counter() - start
    return sim.now / elapsed


def test_null_metrics_backend_is_free():
    """run_fast steps/sec after ``attach_metrics(None)`` stays within
    noise of the uninstrumented baseline; results land in
    BENCH_obs_overhead.json.
    """
    bare = 0.0
    null = 0.0
    live = 0.0
    for _ in range(5):
        bare = max(bare, _time_run(False))
        null = max(null, _time_run(True, None))
        live = max(live, _time_run(True, MetricsRegistry()))
    null_ratio = null / bare
    live_ratio = live / bare

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "obs_overhead.steps_per_sec",
        "workload": "EpochSGD x4 threads, dim=4, round-robin, T=400",
        "bare_steps_per_sec": round(bare, 1),
        "null_steps_per_sec": round(null, 1),
        "live_steps_per_sec": round(live, 1),
        "null_ratio": round(null_ratio, 3),
        "live_ratio": round(live_ratio, 3),
        "unix_time": int(time.time()),
    }
    out = RESULTS_DIR / "BENCH_obs_overhead.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nbare={bare:,.0f} steps/s  null={null:,.0f} steps/s "
        f"({null_ratio:.2f}x)  live={live:,.0f} steps/s ({live_ratio:.2f}x)"
    )
    assert null_ratio >= NULL_TOLERANCE, (
        f"attach_metrics(None) must be within noise of uninstrumented "
        f"baseline: {null:,.0f} vs {bare:,.0f} steps/s "
        f"({null_ratio:.2f} < {NULL_TOLERANCE})"
    )
    assert live_ratio >= LIVE_TOLERANCE, (
        f"live registry (bulk counters only) costs too much: "
        f"{live:,.0f} vs {bare:,.0f} steps/s "
        f"({live_ratio:.2f} < {LIVE_TOLERANCE})"
    )
