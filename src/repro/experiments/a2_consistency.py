"""A2 — the price of consistency: snapshot views vs Algorithm 1.

Algorithm 1 reads the model entry by entry and pays for the resulting
view inconsistency in its convergence bound (the √d·‖x_t − v_t‖ terms).
The shared-memory alternative — consistent double-collect snapshots over
a versioned array — makes every view exact but pays in *steps*:

* a scan costs ≥ 3d steps instead of d, plus 3d per retry;
* retries grow with contention (every concurrent update invalidates a
  collect), so the overhead worsens exactly when parallelism should pay;
* the scan is only obstruction-free, so implementations need a retry
  budget + inconsistent fallback.

This ablation quantifies that trade on the same workload: steps per
iteration, scan retries and fallbacks, and final accuracy for snapshot
SGD vs lock-free SGD across thread counts.  Acceptance: both converge;
the snapshot variant costs strictly more steps per iteration at every n;
and its overhead grows with n (measured via retries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.epoch_sgd import run_lock_free_sgd
from repro.core.snapshot_sgd import run_snapshot_sgd
from repro.experiments.runner import ExperimentResult
from repro.metrics.report import Table
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.random_sched import RandomScheduler


@dataclass
class A2Config:
    """Parameters of the consistency ablation."""

    dim: int = 3
    noise_sigma: float = 0.3
    x0_scale: float = 2.0
    step_size: float = 0.05
    iterations: int = 300
    thread_counts: List[int] = field(default_factory=lambda: [1, 2, 4, 8])
    epsilon: float = 0.25
    max_scan_retries: int = 8
    seed: int = 31

    @classmethod
    def quick(cls) -> "A2Config":
        return cls(thread_counts=[1, 4, 8], iterations=250)

    @classmethod
    def full(cls) -> "A2Config":
        return cls(thread_counts=[1, 2, 4, 8, 16], iterations=1000)


def run(config: A2Config) -> ExperimentResult:
    """Execute A2: snapshot vs lock-free across thread counts."""
    objective = IsotropicQuadratic(
        dim=config.dim, noise=GaussianNoise(config.noise_sigma)
    )
    x0 = np.full(config.dim, config.x0_scale)

    table = Table(
        [
            "n",
            "lock-free steps/iter",
            "snapshot steps/iter",
            "overhead",
            "scan retries",
            "fallbacks",
            "lock-free final",
            "snapshot final",
        ],
        title=(
            f"A2: price of consistency (d={config.dim}, "
            f"T={config.iterations}, retry budget {config.max_scan_retries})"
        ),
    )
    xs: List[float] = []
    lock_free_cost: List[float] = []
    snapshot_cost: List[float] = []
    retries_series: List[float] = []
    passed = True
    for n in config.thread_counts:
        lock_free = run_lock_free_sgd(
            objective, RandomScheduler(seed=config.seed), num_threads=n,
            step_size=config.step_size, iterations=config.iterations,
            x0=x0, seed=config.seed, epsilon=config.epsilon,
        )
        snapshot = run_snapshot_sgd(
            objective, RandomScheduler(seed=config.seed), num_threads=n,
            step_size=config.step_size, iterations=config.iterations,
            x0=x0, seed=config.seed, epsilon=config.epsilon,
            max_scan_retries=config.max_scan_retries,
        )
        lf_cost = lock_free.sim_steps / max(1, lock_free.iterations)
        sn_cost = snapshot.sim_steps / max(1, snapshot.iterations)
        lf_final = objective.distance_to_opt(lock_free.x_final)
        sn_final = objective.distance_to_opt(snapshot.x_final)
        table.add_row(
            [
                n,
                lf_cost,
                sn_cost,
                sn_cost / lf_cost,
                snapshot.extras["scan_retries"],
                snapshot.extras["inconsistent_fallbacks"],
                lf_final,
                sn_final,
            ]
        )
        xs.append(float(n))
        lock_free_cost.append(lf_cost)
        snapshot_cost.append(sn_cost)
        retries_series.append(float(snapshot.extras["scan_retries"]))
        passed = passed and sn_cost > lf_cost
        passed = passed and lock_free.succeeded and snapshot.succeeded

    if len(retries_series) >= 2:
        passed = passed and retries_series[-1] > retries_series[0]

    return ExperimentResult(
        experiment_id="A2",
        title="Price of consistency — snapshot views cost steps and "
        "degrade with contention; Algorithm 1's inconsistent reads don't",
        table=table,
        xs=xs,
        series={
            "lock-free steps/iter": lock_free_cost,
            "snapshot steps/iter": snapshot_cost,
        },
        passed=passed,
        notes=(
            "acceptance: both variants converge; snapshot SGD spends "
            "strictly more steps per iteration at every n; scan retries "
            "grow from the serial to the most contended run"
        ),
    )
