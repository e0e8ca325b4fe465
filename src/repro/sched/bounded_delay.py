"""Random scheduling with a hard per-thread staleness bound.

Behaves like :class:`~repro.sched.random_sched.RandomScheduler`, except
that no runnable thread is ever left unscheduled for more than
``delay_bound`` consecutive steps: once a thread's staleness reaches the
bound it is scheduled immediately.  This gives experiments a *dial* for
the maximum delay τ_max — the quantity every bound in the paper is
parameterized by — while keeping the schedule otherwise stochastic.

With ``bias`` > 0 the scheduler deliberately starves a victim subset of
threads as long as the bound allows, pushing realized interval contention
toward the worst case the bound permits (useful for stress-testing the
Theorem 6.5 precondition).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import NoRunnableThreadError
from repro.runtime.rng import BlockDraws, RngStream
from repro.sched.base import Scheduler


class BoundedDelayScheduler(Scheduler):
    """Random interleaving with guaranteed maximum staleness.

    A thread's staleness is the number of consecutive ``select`` calls
    that passed it over.  It is kept as a *stamp* — the call count at
    which the staleness was last zero (spawn or last pick) — so a call
    updates one stamp instead of every thread's counter.  Runnable ids
    are kept ordered by (stamp, id): the front is the most overdue
    thread, and that order and the victim-free pool are rebuilt only
    when the simulator's runnable tuple changes.

    Args:
        delay_bound: Maximum number of consecutive steps a runnable thread
            may be passed over.  Must be >= 1.
        seed: Seed for the private random stream.
        victims: Optional thread ids to starve as aggressively as the
            bound allows.
        bias: Probability in [0, 1] of applying the starvation policy at
            each step when ``victims`` is set.
    """

    def __init__(
        self,
        delay_bound: int,
        seed: int = 0,
        victims: Optional[Sequence[int]] = None,
        bias: float = 1.0,
    ) -> None:
        if delay_bound < 1:
            raise ValueError(f"delay_bound must be >= 1, got {delay_bound}")
        if not 0.0 <= bias <= 1.0:
            raise ValueError(f"bias must be in [0, 1], got {bias}")
        self.delay_bound = delay_bound
        self._draws = BlockDraws(RngStream.root(seed).generator)
        self._victims = set(victims or ())
        self._bias = bias
        self._starve = bool(self._victims) and bias > 0
        self._calls = 0
        # Runnable thread id -> call count at which its staleness was 0.
        self._stamp: Dict[int, int] = {}
        # Staleness of every other thread seen so far, frozen when it
        # left the runnable set (or 0 from its spawn).
        self._frozen: Dict[int, int] = {}
        self._ids: Optional[Tuple[int, ...]] = None
        self._order: Dict[int, None] = {}  # runnable ids by (stamp, id)
        self._pool: Tuple[int, ...] = ()  # non-victims, else every id

    def on_spawn(self, sim, thread) -> None:
        if thread.thread_id in self._stamp:  # id reused by a new simulation
            self._stamp[thread.thread_id] = self._calls
        else:
            self._frozen[thread.thread_id] = 0

    def _sync(self, ids: Tuple[int, ...]) -> None:
        """Re-derive the per-set state after the runnable tuple changed."""
        if not ids:
            raise NoRunnableThreadError("scheduler consulted with no runnable thread")
        calls, stamp, frozen = self._calls, self._stamp, self._frozen
        for i in [i for i in stamp if i not in ids]:
            frozen[i] = calls - stamp.pop(i)
        for i in ids:
            if i not in stamp:
                stamp[i] = calls - frozen.pop(i, 0)
        self._order = dict.fromkeys(sorted(ids, key=lambda i: (stamp[i], i)))
        self._pool = tuple(i for i in ids if i not in self._victims) or ids
        self._ids = ids

    def select(self, sim) -> int:
        ids = sim.runnable_tuple
        if ids is not self._ids:
            self._sync(ids)
        calls = self._calls
        self._calls = calls + 1
        order = self._order
        # Hard bound first: any thread at the staleness limit must run;
        # serve the *most* overdue (lowest id on a tie) so that infeasibly
        # tight bounds (delay_bound < n - 1) degrade to round-robin rather
        # than starving high thread ids.
        oldest = next(iter(order))
        if calls - self._stamp[oldest] >= self.delay_bound - 1:
            choice = oldest
        elif self._starve and (
            self._bias >= 1.0 or self._draws.random() < self._bias
        ):
            pool = self._pool
            choice = pool[self._draws.below(len(pool))]
        else:
            choice = ids[self._draws.below(len(ids))]
        del order[choice]
        order[choice] = None
        self._stamp[choice] = calls + 1
        return choice
