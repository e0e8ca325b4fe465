"""Consistent-snapshot SGD — what Algorithm 1 deliberately is not.

Replaces Algorithm 1's cheap entry-wise reads with the double-collect
consistent scan of :class:`~repro.shm.versioned.VersionedArray`: every
view is a true snapshot of the model, so the ‖x_t − v_t‖ view error that
drives the paper's analysis vanishes.  The costs, measured in the A2
ablation:

* every scan is ≥ 3d steps instead of d, plus 3d per retry;
* retries grow with contention (each concurrent update invalidates the
  collect), so the step overhead *increases* with n;
* the scan is only obstruction-free — an adversary interleaving one
  update into every collect starves the scanner, which is why the
  program takes a ``max_scan_retries`` fallback (after which it proceeds
  with the inconsistent collect, i.e. degrades to Algorithm 1 behaviour).

Updates go through the seqlock update protocol (version to odd, value
fetch&add, version to even), so writers cost 3 steps per non-zero
component — part of the price the ablation measures.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.algorithm import Algorithm, AlgorithmSetup, simulate
from repro.core.epoch_sgd import SGDProgram
from repro.core.results import LockFreeRunResult
from repro.objectives.base import Objective
from repro.runtime.program import Program
from repro.shm.counter import AtomicCounter
from repro.shm.versioned import VersionedArray


class SnapshotSGDProgram(SGDProgram):
    """One thread's consistent-snapshot SGD loop.

    Args:
        model: The shared :class:`VersionedArray`.
        counter: Shared iteration counter C.
        objective: Function/oracle to minimize.
        step_size: Learning rate α.
        max_iterations: Global budget T.
        max_scan_retries: Double-collect retry budget before falling back
            to the (possibly inconsistent) last collect; ``-1`` retries
            forever (can be starved by an adversary — use only under fair
            schedulers).
        record_iterations: Emit IterationRecords (their ``sample`` field
            carries ``(oracle_sample, scan_consistent, scan_retries)``).
    """

    counters = ("scan_retries", "inconsistent_fallbacks")

    def __init__(
        self,
        model: VersionedArray,
        counter: AtomicCounter,
        objective: Objective,
        step_size: float,
        max_iterations: int,
        max_scan_retries: int = 8,
        record_iterations: bool = True,
    ) -> None:
        super().__init__(
            model, counter, objective, step_size, max_iterations,
            record_iterations,
        )
        self.max_scan_retries = max_scan_retries

    def scan(self, ctx, state):
        view, consistent, retries = yield from self.model.scan_ops(
            self.max_scan_retries
        )
        state["scan_retries"] += retries
        if not consistent:
            state["inconsistent_fallbacks"] += 1
        state["scan"] = (consistent, retries)
        return view

    def apply(self, ctx, state, view, j, delta, epoch):
        # The update's time is that of its closing version bump.
        yield from self.model.update_ops(j, delta)
        return True

    def finish(self, ctx, state, sample):
        return (sample, *state["scan"])


class SnapshotSGDAlgorithm(Algorithm):
    """Consistent-snapshot SGD as an *unregistered* algorithm (A2's
    comparison point, no zoo cell; threads ``snapshot-worker-<i>``).
    :meth:`build` versions the shared model X in place, so the
    ``model.versions`` segment follows the counter."""

    name = "snapshot"

    def __init__(self, max_scan_retries: int = 8) -> None:
        self.max_scan_retries = max_scan_retries

    def build(self, setup: AlgorithmSetup) -> List[Program]:
        model = VersionedArray.over(setup.model, name="model")
        return [
            SnapshotSGDProgram(
                model=model,
                counter=setup.counter,
                objective=setup.objective,
                step_size=setup.step_size,
                max_iterations=setup.iterations,
                max_scan_retries=self.max_scan_retries,
                record_iterations=setup.record_iterations,
            )
            for _ in range(setup.num_threads)
        ]


def run_snapshot_sgd(
    objective: Objective,
    scheduler,
    num_threads: int,
    step_size: float,
    iterations: int,
    x0: Optional[np.ndarray] = None,
    seed: int = 0,
    epsilon: Optional[float] = None,
    max_scan_retries: int = 8,
) -> LockFreeRunResult:
    """Driver mirroring :func:`repro.core.epoch_sgd.run_lock_free_sgd`
    but with a versioned model and consistent scans; ``result.extras``
    holds the ``scan_retries`` and ``inconsistent_fallbacks`` summed
    over threads."""
    result, _sim = simulate(
        SnapshotSGDAlgorithm(max_scan_retries), objective, scheduler,
        num_threads, step_size, iterations, x0=x0, seed=seed, epsilon=epsilon,
    )
    return result
