"""Momentum SGD — the Section-8 alternative mitigation.

The paper's discussion notes that instead of decreasing the step size,
one could "introduce a 'momentum' term by which the current model value
is multiplied" (citing Mitliagkas et al., *Asynchrony begets momentum*).
This module provides both pieces needed to study that remark:

* :func:`run_momentum_sgd` — the sequential heavy-ball iteration
  x_{t+1} = x_t − α·g̃(x_t) + β·(x_t − x_{t−1}), the reference process;
* :class:`MomentumSGDProgram` — a lock-free variant where each thread
  keeps a *local* momentum buffer over its own gradient history and
  applies the combined update through per-entry fetch&adds (local
  buffers are the standard data-parallel choice — a shared velocity
  would need its own synchronization story);
* :func:`fit_implicit_momentum` — the "asynchrony begets momentum"
  measurement: given a trajectory of plain asynchronous SGD, fit the β
  of the sequential momentum process that best explains it.  Mitliagkas
  et al. show asynchrony acts like momentum β ≈ expected staleness
  fraction; the E9 experiment reproduces that shape on our simulator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.algorithm import Algorithm, AlgorithmSetup, register_algorithm
from repro.core.epoch_sgd import SGDProgram
from repro.core.results import SequentialRunResult
from repro.errors import ConfigurationError
from repro.objectives.base import Objective
from repro.runtime.rng import RngStream
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter


def run_momentum_sgd(
    objective: Objective,
    alpha: float,
    momentum: float,
    iterations: int,
    x0: Optional[np.ndarray] = None,
    seed: int = 0,
    epsilon: Optional[float] = None,
) -> SequentialRunResult:
    """Sequential heavy-ball SGD.

    x_{t+1} = x_t − α·g̃(x_t) + β·(x_t − x_{t−1}), with x_{−1} = x_0.

    Args:
        objective: Function/oracle to minimize.
        alpha: Step size α > 0.
        momentum: β ∈ [0, 1).
        iterations: Number of iterations T.
        x0: Starting point (defaults to the origin).
        seed: Oracle stream seed.
        epsilon: Optional success radius² for hitting-time accounting.
    """
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be > 0, got {alpha}")
    if not 0.0 <= momentum < 1.0:
        raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")

    rng = RngStream.root(seed)
    x = (
        np.zeros(objective.dim)
        if x0 is None
        else np.asarray(x0, dtype=float).copy()
    )
    previous = x.copy()
    distances = [objective.distance_to_opt(x)]
    hit_time: Optional[int] = None
    if epsilon is not None and distances[0] ** 2 <= epsilon:
        hit_time = 0

    for t in range(1, iterations + 1):
        gradient, _ = objective.stochastic_gradient(x, rng)
        x_next = x - alpha * gradient + momentum * (x - previous)
        previous, x = x, x_next
        distance = objective.distance_to_opt(x)
        distances.append(distance)
        if epsilon is not None and hit_time is None and distance**2 <= epsilon:
            hit_time = t

    return SequentialRunResult(
        x_final=x,
        distances=np.array(distances),
        hit_time=hit_time,
        epsilon=epsilon,
        iterations=iterations,
    )


class MomentumSGDProgram(SGDProgram):
    """Lock-free SGD with a thread-local momentum (velocity) buffer.

    Each thread maintains v ← β·v + g̃(view) over *its own* iterations and
    applies −α·v through per-entry fetch&adds.  Records carry the applied
    velocity as their ``gradient`` so the accumulator trajectory stays
    exact.

    Args:
        model: Shared model X.
        counter: Shared iteration counter C.
        objective: Function/oracle to minimize.
        step_size: α.
        momentum: β ∈ [0, 1).
        max_iterations: Global budget T.
        record_iterations: Emit IterationRecords.
    """

    def __init__(
        self,
        model: AtomicArray,
        counter: AtomicCounter,
        objective: Objective,
        step_size: float,
        momentum: float,
        max_iterations: int,
        record_iterations: bool = True,
    ) -> None:
        super().__init__(
            model, counter, objective, step_size, max_iterations,
            record_iterations,
        )
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum

    def direction(self, ctx, state, gradient):
        # The velocity starts at 0 with each run.
        velocity = self.momentum * state.get("velocity", 0.0) + gradient
        state["velocity"] = velocity
        return velocity


@register_algorithm
class MomentumAlgorithm(Algorithm):
    """Heavy-ball on the zoo seam: thread-local velocity buffers applied
    via fetch&add.  Iteration length stays bounded, so all three lemma
    certificates apply (the velocity changes values, not structure)."""

    name = "momentum"
    title = "Momentum: thread-local heavy-ball over lock-free fetch&add"

    def __init__(self, momentum: float = 0.5) -> None:
        self.momentum = momentum

    def build(self, setup: AlgorithmSetup):
        return [
            MomentumSGDProgram(
                model=setup.model,
                counter=setup.counter,
                objective=setup.objective,
                step_size=setup.step_size,
                momentum=self.momentum,
                max_iterations=setup.iterations,
                record_iterations=setup.record_iterations,
            )
            for _ in range(setup.num_threads)
        ]


def fit_implicit_momentum(
    distances: np.ndarray,
    objective: Objective,
    alpha: float,
    iterations: int,
    x0: np.ndarray,
    betas: Optional[np.ndarray] = None,
    seeds: int = 5,
    base_seed: int = 0,
) -> float:
    """Fit the β whose *sequential momentum* trajectory best matches an
    observed distance trajectory — the "asynchrony begets momentum" probe.

    For each candidate β, run ``seeds`` sequential momentum trajectories,
    average their log-distance curves, and score against the observed
    curve (L2 on log-distances, truncated to the shorter length).
    Returns the best β.
    """
    if betas is None:
        betas = np.linspace(0.0, 0.9, 10)
    observed = np.log(np.maximum(np.asarray(distances, dtype=float), 1e-12))
    best_beta, best_score = 0.0, np.inf
    for beta in betas:
        curves = []
        for offset in range(seeds):
            run = run_momentum_sgd(
                objective, alpha, float(beta), iterations, x0=x0,
                seed=base_seed + offset,
            )
            curves.append(np.log(np.maximum(run.distances, 1e-12)))
        mean_curve = np.mean(curves, axis=0)
        length = min(len(mean_curve), len(observed))
        score = float(np.mean((mean_curve[:length] - observed[:length]) ** 2))
        if score < best_score:
            best_score, best_beta = score, float(beta)
    return best_beta
