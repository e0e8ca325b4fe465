"""Uniform (or weighted) random interleaving.

The standard *stochastic* scheduling model used by prior work (e.g.
De Sa et al., NIPS'15): at every step a runnable thread is drawn at
random, optionally with per-thread weights to model heterogeneous speeds.
Deterministic given its seed.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.runtime.rng import BlockDraws, RngStream
from repro.sched.base import Scheduler


class RandomScheduler(Scheduler):
    """Pick a runnable thread at random each step.

    Args:
        seed: Seed for the scheduler's private random stream.
        weights: Optional map thread_id -> relative speed.  Threads absent
            from the map get weight 1.  Weights model slow/fast cores: a
            thread with weight 0.1 takes steps ~10x less often, inflating
            the delays its updates suffer.  Each must be finite and >= 0.
    """

    def __init__(self, seed: int = 0, weights: Optional[Dict[int, float]] = None):
        self._weights = dict(weights) if weights else {}
        for thread_id, weight in self._weights.items():
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(
                    f"weight of thread {thread_id} must be finite and >= 0, "
                    f"got {weight!r}"
                )
        self._rng = RngStream.root(seed)
        # The unweighted path draws through BlockDraws (same values as
        # numpy's integers(), far cheaper); the weighted one keeps numpy.
        self._draws = None if self._weights else BlockDraws(self._rng.generator)

    def select(self, sim) -> int:
        if self._draws is not None:
            ids = self._runnable_tuple(sim)
            return ids[self._draws.below(len(ids))]
        ids = self._runnable(sim)
        raw = np.array([self._weights.get(i, 1.0) for i in ids], dtype=float)
        total = raw.sum()
        if total <= 0:
            return int(ids[self._rng.integers(0, len(ids))])
        return int(self._rng.choice(ids, p=raw / total))
