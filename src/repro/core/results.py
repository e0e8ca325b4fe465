"""Result records returned by the SGD drivers.

Both sequential and lock-free runs report the same core quantities — the
distance-to-optimum trajectory, the first time the success region
S = {x : ‖x − x*‖² ≤ ε} was hit, and the final iterate — so that every
experiment can compare them like-for-like.  Lock-free results additionally
carry the per-iteration :class:`~repro.runtime.events.IterationRecord`
stream that the contention analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.runtime.events import IterationRecord


@dataclass
class SequentialRunResult:
    """Outcome of a sequential SGD run.

    Attributes:
        x_final: The last iterate x_T.
        distances: ‖x_t − x*‖ for t = 0..T (length T+1).
        hit_time: Smallest t with ‖x_t − x*‖² ≤ ε, or ``None`` if the
            success region was never entered (or no ε was given).
        epsilon: The success-region radius² used for ``hit_time``.
        iterations: Number of SGD iterations performed (T).
    """

    x_final: np.ndarray
    distances: np.ndarray
    hit_time: Optional[int]
    epsilon: Optional[float]
    iterations: int

    @property
    def succeeded(self) -> bool:
        """Whether the success region was entered at some t ≤ T."""
        return self.hit_time is not None

    @property
    def final_distance(self) -> float:
        """‖x_T − x*‖."""
        return float(self.distances[-1])


@dataclass
class LockFreeRunResult:
    """Outcome of a lock-free (Algorithm 1 / Hogwild / locked) run.

    Attributes:
        x_final: Snapshot of the shared model X after quiescence.
        x0: The initial model.
        records: Per-iteration records, sorted by the paper's iteration
            order (time of first model update — Lemma 6.1's total order).
        distances: ‖x_t − x*‖ for the accumulator sequence x_t obtained
            by applying iterations' updates in that total order
            (length = #iterations + 1; x_0 first).
        hit_time: Smallest t with ‖x_t − x*‖² ≤ ε in iteration-time, or
            ``None``.
        epsilon: Success radius² used for ``hit_time``.
        sim_steps: Total shared-memory steps the execution consumed.
        thread_iterations: Completed iterations per thread id.
        thread_steps: Shared-memory steps executed per thread id; the
            maximum is the execution's idealized parallel wall-clock
            (critical path), cf. :func:`repro.metrics.trace.
            parallel_speedup`.
        extras: Variant-specific counters summed over threads
            (``spin_steps``, ``cas_failures``, ``scan_retries``, ...);
            empty for plain Algorithm 1.
    """

    x_final: np.ndarray
    x0: np.ndarray
    records: List[IterationRecord]
    distances: np.ndarray
    hit_time: Optional[int]
    epsilon: Optional[float]
    sim_steps: int
    thread_iterations: dict = field(default_factory=dict)
    thread_steps: dict = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """Whether the success region was entered at some iteration ≤ T."""
        return self.hit_time is not None

    @property
    def iterations(self) -> int:
        """Total completed iterations across all threads."""
        return len(self.records)

    @property
    def final_distance(self) -> float:
        """‖x_final − x*‖ of the shared model at quiescence."""
        return float(self.distances[-1])


def accumulator_trajectory(
    x0: np.ndarray, records: List[IterationRecord]
) -> np.ndarray:
    """Build the paper's accumulator sequence x_t from iteration records.

    x_t is defined (Section 6.1) as x_0 plus all updates of the first t
    iterations in the total order of first model updates; ``records``
    must already be sorted by :attr:`IterationRecord.order_time`.  Only
    deltas whose fetch&add actually landed are applied (epoch-guarded
    adds can be rejected).

    Returns:
        Array of shape (len(records) + 1, d) whose row t is x_t.
    """
    x0 = np.asarray(x0, dtype=float)
    trajectory = np.empty((len(records) + 1, x0.size))
    trajectory[0] = x0
    if records:
        # Row t first holds iteration t's delta.  A record without a
        # gradient gets -1.0 * +0.0 = -0.0 in every entry, because
        # x + (-0.0) is x bit for bit (x + (+0.0) turns -0.0 into +0.0).
        zero = np.zeros(x0.size)
        gradients = np.array(
            [zero if r.gradient is None else r.gradient for r in records],
            dtype=float,
        )
        steps = np.array(
            [1.0 if r.gradient is None else r.step_size for r in records],
            dtype=float,
        )
        deltas = trajectory[1:]
        np.multiply(-steps[:, None], gradients, out=deltas)
        if any(r.applied is not None for r in records):
            ones = np.ones(x0.size)
            deltas *= np.array(
                [ones if r.applied is None else r.applied for r in records],
                dtype=float,
            )
        # An accumulate adds the rows one after another, in order: the
        # same additions as applying each delta to the running x.
        np.cumsum(trajectory, axis=0, out=trajectory)
    return trajectory
