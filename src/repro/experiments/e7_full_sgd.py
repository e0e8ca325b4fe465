"""E7 — Corollary 7.1: FullSGD (Algorithm 2) reaches the target in
O(T·log(α·2·M·n/√ε)) iterations.

Claims measured:

1. After its epoch schedule, FullSGD's output satisfies
   E‖r − x*‖ ≤ √ε — even under adversarial delay scheduling, thanks to
   the halving step size and epoch-isolated updates.
2. The epoch count matches the prescription ⌈log₂(2·α₀·M·n/√ε)⌉ + 1,
   so total work is O(T·log(α₀·2·M·n/√ε)).

Method: for a sweep of targets ε, run a seed ensemble of FullSGD under
both a benign random scheduler and a delay adversary; report the mean
final distance against √ε and the executed epoch count against the
formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.core.full_sgd import FullSGD, recommended_num_epochs
from repro.experiments.ensemble import EnsemblePool, run_ensemble
from repro.experiments.runner import ExperimentResult
from repro.metrics.report import Table
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.priority_delay import PriorityDelayScheduler
from repro.sched.random_sched import RandomScheduler


@dataclass
class E7Config:
    """Parameters of the E7 ensemble."""

    dim: int = 2
    noise_sigma: float = 0.3
    x0_scale: float = 2.0
    num_threads: int = 3
    alpha0: float = 0.1
    iterations_per_epoch: int = 400
    epsilons: List[float] = field(default_factory=lambda: [0.2, 0.1, 0.05])
    num_runs: int = 8
    adversary_delay: int = 40
    base_seed: int = 1500
    jobs: int = 1

    @classmethod
    def quick(cls) -> "E7Config":
        return cls(epsilons=[0.2, 0.05], num_runs=5, iterations_per_epoch=300)

    @classmethod
    def full(cls) -> "E7Config":
        return cls(
            epsilons=[0.2, 0.1, 0.05, 0.02],
            num_runs=20,
            iterations_per_epoch=800,
        )


def _make_scheduler(config: E7Config, kind: str, seed: int):
    if kind == "random":
        return RandomScheduler(seed=seed)
    return PriorityDelayScheduler(
        victims=[0], delay=config.adversary_delay, seed=seed
    )


def _full_sgd_worker(
    config: E7Config, epsilon: float, kind: str, seed: int
) -> Tuple[float, float]:
    """One seeded FullSGD run → (final distance, rejected update count)."""
    objective = IsotropicQuadratic(
        dim=config.dim, noise=GaussianNoise(config.noise_sigma)
    )
    driver = FullSGD(
        objective,
        num_threads=config.num_threads,
        epsilon=epsilon,
        alpha0=config.alpha0,
        iterations_per_epoch=config.iterations_per_epoch,
        x0=np.full(config.dim, config.x0_scale),
    )
    out = driver.run(_make_scheduler(config, kind, seed), seed=seed)
    return float(out.distance), float(out.rejected_updates)


def run(config: E7Config) -> ExperimentResult:
    """Execute E7 across targets and schedulers."""
    with EnsemblePool(config.jobs, config.num_runs) as pool:
        return _run(config, pool)


def _run(config: E7Config, pool: EnsemblePool) -> ExperimentResult:
    objective = IsotropicQuadratic(
        dim=config.dim, noise=GaussianNoise(config.noise_sigma)
    )
    x0 = np.full(config.dim, config.x0_scale)
    radius = max(1.0, 2.0 * objective.distance_to_opt(x0))
    gradient_bound = math.sqrt(objective.second_moment_bound(radius))

    table = Table(
        [
            "epsilon",
            "scheduler",
            "epochs (formula)",
            "mean ||r-x*||",
            "target sqrt(eps)",
            "ok",
            "mean rejected",
        ],
        title=(
            f"E7: FullSGD convergence (n={config.num_threads}, "
            f"alpha0={config.alpha0}, T={config.iterations_per_epoch}, "
            f"{config.num_runs} runs/cell)"
        ),
    )
    xs: List[float] = []
    measured: List[float] = []
    targets: List[float] = []
    passed = True
    for epsilon in config.epsilons:
        formula_epochs = recommended_num_epochs(
            config.alpha0, gradient_bound, config.num_threads, epsilon
        )
        schedulers = [
            ("random", "random"),
            (f"priority-delay({config.adversary_delay})", "priority-delay"),
        ]
        for name, kind in schedulers:
            driver = FullSGD(
                objective,
                num_threads=config.num_threads,
                epsilon=epsilon,
                alpha0=config.alpha0,
                iterations_per_epoch=config.iterations_per_epoch,
                x0=x0,
            )
            cell = run_ensemble(
                functools.partial(_full_sgd_worker, config, epsilon, kind),
                range(config.base_seed, config.base_seed + config.num_runs),
                jobs=config.jobs,
                pool=pool,
            )
            distances = [distance for distance, _rejected in cell]
            rejected = [rejected_count for _distance, rejected_count in cell]
            mean_distance = float(np.mean(distances))
            target = math.sqrt(epsilon)
            ok = mean_distance <= target
            passed = passed and ok and driver.num_epochs == formula_epochs
            table.add_row(
                [
                    epsilon,
                    name,
                    f"{driver.num_epochs} ({formula_epochs})",
                    mean_distance,
                    target,
                    ok,
                    float(np.mean(rejected)),
                ]
            )
            if name == "random":
                xs.append(epsilon)
                measured.append(mean_distance)
                targets.append(target)

    return ExperimentResult(
        experiment_id="E7",
        title="Corollary 7.1 — FullSGD reaches E||r-x*|| <= sqrt(eps) in "
        "O(T log(alpha*2*M*n/sqrt(eps))) iterations",
        table=table,
        xs=xs,
        series={"mean ||r-x*||": measured, "sqrt(eps) target": targets},
        passed=passed,
        notes=(
            "acceptance: mean final distance below sqrt(eps) under both the "
            "benign and the adversarial scheduler, and the executed epoch "
            "count equals the Corollary 7.1 formula"
        ),
    )
