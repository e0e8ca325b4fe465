#!/usr/bin/env python3
"""Tour of the extension algorithms around the paper's discussion section.

Four vignettes, one per remark the paper makes but does not develop:

1. **Staleness-aware SGD** (related work): damping updates by observed
   staleness beats a weak adversary — and falls to the adaptive one,
   just as the paper's "our lower bound applies to these works as well"
   asserts.
2. **Momentum** (Section 8): asynchrony begets momentum — the implicit
   β fitted from lock-free trajectories grows with the thread count.
3. **Consistent snapshots** (implicit design choice): making every view
   a true snapshot removes the inconsistency the analysis battles, at a
   step cost that grows with contention.
4. **Classic averaged-iterate analysis** (Section 3's contrast): the
   regret-style guarantee for the averaged iterate, next to its measured
   value.

Usage::

    python examples/extensions_tour.py
"""

import numpy as np

import repro
from repro.core.averaged import classic_average_bound, run_averaged_sgd
from repro.core.snapshot_sgd import run_snapshot_sgd
from repro.core.staleness_aware import StalenessAwareSGDProgram
from repro.metrics.trace import (
    iterations_to_stay_below,
    parallel_speedup,
)


def staleness_vignette() -> None:
    print("== 1. staleness-aware damping vs weak and adaptive adversaries ==")
    objective = repro.IsotropicQuadratic(dim=1, noise=repro.ZeroNoise())
    x0 = np.array([10.0])
    target = 1e-3 * 10.0
    alpha, tau = 0.1, 100

    def attacked(freeze_phase):
        def factory(model, counter, thread_index):
            return StalenessAwareSGDProgram(
                model, counter, objective, alpha, 1200
            )

        result = repro.run_lock_free_sgd(
            objective,
            repro.StaleGradientAttack(victim=1, runner=0, delay=tau,
                                      freeze_phase=freeze_phase),
            num_threads=2, step_size=alpha, iterations=1200, x0=x0, seed=0,
            program_factory=factory,
        )
        return iterations_to_stay_below(result.distances, target)

    weak = attacked("observe")
    adaptive = attacked("update")
    print(f"  weak adversary (freezes before the staleness read): "
          f"converged in {weak} iterations")
    print(f"  adaptive adversary (freezes after it):              "
          f"converged in {adaptive} iterations")
    print("  -> the mitigation only helps against adversaries that cannot "
          "see the algorithm's phases\n")


def momentum_vignette() -> None:
    print("== 2. asynchrony begets momentum ==")
    objective = repro.IsotropicQuadratic(dim=2, noise=repro.ZeroNoise())
    x0 = np.array([5.0, -5.0])
    alpha = 0.12
    for n in (1, 4, 16):
        result = repro.run_lock_free_sgd(
            objective, repro.RoundRobinScheduler(), num_threads=n,
            step_size=alpha, iterations=250, x0=x0, seed=0,
        )
        beta = repro.fit_implicit_momentum(
            result.distances, objective, alpha, len(result.distances) - 1,
            x0, betas=np.linspace(0, 0.95, 20), seeds=1,
        )
        print(f"  n={n:2d} threads -> fitted implicit momentum beta = {beta:.2f}")
    print()


def snapshot_vignette() -> None:
    print("== 3. the price of consistent views ==")
    objective = repro.IsotropicQuadratic(dim=3, noise=repro.GaussianNoise(0.3))
    x0 = np.full(3, 2.0)
    for n in (1, 8):
        lock_free = repro.run_lock_free_sgd(
            objective, repro.RandomScheduler(seed=1), num_threads=n,
            step_size=0.05, iterations=200, x0=x0, seed=1,
        )
        snapshot = run_snapshot_sgd(
            objective, repro.RandomScheduler(seed=1), num_threads=n,
            step_size=0.05, iterations=200, x0=x0, seed=1,
        )
        ratio = (snapshot.sim_steps / snapshot.iterations) / (
            lock_free.sim_steps / lock_free.iterations
        )
        print(
            f"  n={n}: snapshot views cost {ratio:.1f}x the steps/iteration "
            f"({snapshot.extras['scan_retries']} scan retries)"
        )
    # And the flip side of lock-freedom: ideal parallel speedup.
    result = repro.run_lock_free_sgd(
        objective, repro.RoundRobinScheduler(), num_threads=8,
        step_size=0.05, iterations=400, x0=x0, seed=2,
    )
    speedup = parallel_speedup(
        result.sim_steps, list(result.thread_steps.values())
    )
    print(f"  ideal wall-clock speedup of the lock-free run at n=8: "
          f"~{speedup:.1f}x (Section 8's parallelism dividend)\n")


def averaged_vignette() -> None:
    print("== 4. the classic averaged-iterate guarantee (Section 3) ==")
    objective = repro.IsotropicQuadratic(dim=2, noise=repro.GaussianNoise(0.5))
    x0 = np.array([2.0, -2.0])
    iterations = 400
    bound = classic_average_bound(
        objective.strong_convexity,
        objective.second_moment_bound(2 * objective.distance_to_opt(x0)),
        iterations,
    )
    measured = np.mean(
        [
            run_averaged_sgd(objective, iterations, x0=x0, seed=s)
            .average_suboptimality
            for s in range(10)
        ]
    )
    print(f"  E[f(x̄_T)] - f* measured: {measured:.4f}")
    print(f"  classic bound 2M²/(c(T+1)): {bound:.4f}")
    print("  -> holds; note it speaks about the averaged iterate's value, "
          "not hitting probabilities — hence the paper's martingales")


def main() -> None:
    staleness_vignette()
    momentum_vignette()
    snapshot_vignette()
    averaged_vignette()


if __name__ == "__main__":
    main()
