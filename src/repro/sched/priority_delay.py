"""A generic delay dial: hold a victim's updates for a fixed time.

Whenever a victim thread is about to apply its gradient (published phase
``"update"``), this scheduler parks it for exactly ``delay`` steps while
the other threads proceed, then lets the stale update through.  Unlike
:class:`~repro.sched.stale_attack.StaleGradientAttack` (which counts
runner *iterations*), the hold here is counted in raw shared-memory
steps, giving experiments direct control over the per-update staleness —
and hence over the realized τ_max that enters every bound.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.runtime.rng import BlockDraws, RngStream
from repro.sched.adaptive import AdaptiveAdversary


class PriorityDelayScheduler(AdaptiveAdversary):
    """Starve victims' update phases for a fixed number of steps.

    Args:
        victims: Thread ids whose updates get delayed.
        delay: Steps each victim is parked once it enters its update
            phase.
        seed: Seed for the random choice among non-victim threads.
    """

    def __init__(self, victims: Sequence[int], delay: int, seed: int = 0) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.victims = set(victims)
        self.delay = delay
        self._draws = BlockDraws(RngStream.root(seed).generator)
        self._held_since: Dict[int, int] = {}

    def _is_held(self, sim, thread_id: int) -> bool:
        if thread_id not in self.victims:
            return False
        if self.phase(sim, thread_id) != "update":
            self._held_since.pop(thread_id, None)
            return False
        start = self._held_since.setdefault(thread_id, sim.now)
        return sim.now - start < self.delay

    def select(self, sim) -> int:
        ids = self._runnable_tuple(sim)
        free = [i for i in ids if not self._is_held(sim, i)]
        pool = free or ids  # never deadlock: if everyone is held, release
        return pool[self._draws.below(len(pool))]
