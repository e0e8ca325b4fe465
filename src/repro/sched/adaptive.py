"""Strong adaptive adversaries.

The paper's scheduler is *strong* and *adaptive*: it designs schedules
"with full knowledge of the algorithm and random coin flips".  In this
library, programs publish their local state — drawn samples, computed
gradients, current phase — through ``ctx.annotate``, and adaptive
adversaries read those annotations plus the shared memory itself before
every scheduling decision.

Annotation contract of the SGD programs (:mod:`repro.core`), all
published by the one iteration loop,
:class:`~repro.core.epoch_sgd.SGDProgram`, or by a variant's hook:

``phase``
    ``"start"`` — about to fetch&add the iteration counter;
    ``"lock"`` — acquiring the global lock (locked SGD only);
    ``"read"`` — scanning the model entries into its view;
    ``"observe"`` — re-reading the counter to measure staleness
    (staleness-aware SGD only);
    ``"update"`` — gradient computed, applying per-entry fetch&adds;
    ``"done"`` — program finished.
``iterations_done``
    Number of iterations this thread has completed.
``pending_gradient``
    The stochastic gradient (momentum: the velocity) about to be
    applied — the revealed coins; ``None`` between updates.
``view``
    The inconsistent view the gradient was computed at.
``sample``
    The raw random sample/coin used by the gradient oracle.
``blocked``
    ``True`` while the thread's next step cannot make progress (e.g. a
    spinlock waiter whose CAS just failed).  Phase-parking adversaries
    use it to avoid livelocking lock-based programs.
``staleness``
    Staleness-aware SGD: iterations claimed since this one (its last
    observation).
``cas_failures``
    Leashed SGD: failed CASes so far in this run.

Every variant publishes ``view`` and ``sample``.  Only ``phase``,
``iterations_done``, ``pending_gradient`` and ``blocked`` are read: by
the adversaries of :mod:`repro.sched`, the adaptive crash injector
(:mod:`repro.faults.injectors`) and the sanitizer's torn-update check
(:mod:`repro.analysis.sanitizer`).

:class:`GreedyAscentAdversary` is a concrete worst-case-seeking adversary:
knowing the optimum x*, it always schedules the pending primitive that
(greedily) pushes the shared model furthest from x*.
"""

from __future__ import annotations

from typing import Optional

from repro.sched.base import Scheduler
from repro.shm.array import AtomicArray
from repro.shm.ops import FetchAdd, GuardedFetchAdd

import numpy as np


class AdaptiveAdversary(Scheduler):
    """Base class bundling the state-inspection helpers.

    Subclasses implement :meth:`select` using :meth:`phase`,
    :meth:`iterations_done`, :meth:`pending_gradient` and direct memory
    peeks; none of these consume logical time (the adversary observes for
    free, as in the model).
    """

    @staticmethod
    def phase(sim, thread_id: int) -> str:
        """The published phase of a thread (``""`` if never annotated)."""
        return sim.annotations(thread_id).get("phase", "")

    @staticmethod
    def iterations_done(sim, thread_id: int) -> int:
        """Completed-iteration count published by a thread."""
        return int(sim.annotations(thread_id).get("iterations_done", 0))

    @staticmethod
    def pending_gradient(sim, thread_id: int) -> Optional[np.ndarray]:
        """The gradient a thread is currently applying, if any."""
        return sim.annotations(thread_id).get("pending_gradient")

    @staticmethod
    def blocked(sim, thread_id: int) -> bool:
        """Whether a thread published that it cannot make progress."""
        return bool(sim.annotations(thread_id).get("blocked", False))


class GreedyAscentAdversary(AdaptiveAdversary):
    """Schedule whichever pending primitive most increases ‖X − x*‖².

    A concrete instantiation of the strong adversary: it inspects every
    runnable thread's pending operation and, for pending model updates,
    computes the exact effect on the squared distance to the optimum
    (2·(X[i] − x*[i])·δ + δ²).  Ties and non-update steps fall back to
    the round-robin order, so the adversary still keeps the execution
    moving (it must schedule *something* each step).

    Args:
        model: The shared model array X.
        x_star: The optimum the algorithm is trying to reach.
    """

    def __init__(self, model: AtomicArray, x_star: np.ndarray) -> None:
        self.model = model
        self.x_star = np.asarray(x_star, dtype=float)
        self._rr_last = -1

    def _distance_effect(self, sim, thread_id: int) -> float:
        op = sim.threads[thread_id].pending_op
        if isinstance(op, (FetchAdd, GuardedFetchAdd)) and self.model.contains_address(
            op.address
        ):
            index = self.model.index_of_address(op.address)
            current = sim.memory.peek(op.address)
            gap = current - self.x_star[index]
            return 2.0 * gap * op.delta + op.delta * op.delta
        return 0.0

    def select(self, sim) -> int:
        ids = self._runnable(sim)
        effects = [(self._distance_effect(sim, i), i) for i in ids]
        best_effect = max(e for e, _ in effects)
        if best_effect > 0.0:
            for effect, thread_id in effects:
                if effect == best_effect:
                    return thread_id
        # No harmful update available: round-robin to keep making steps.
        for candidate in ids:
            if candidate > self._rr_last:
                self._rr_last = candidate
                return candidate
        self._rr_last = ids[0]
        return ids[0]
