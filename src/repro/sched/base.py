"""Scheduler protocol.

A scheduler is anything with ``select(sim) -> thread_id``.  The simulator
hands it the *entire* simulation state — this is deliberate: the paper's
adversary is strong and adaptive, so hiding information from schedulers
would only weaken the model.  Benign schedulers simply choose not to look.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Tuple

from repro.errors import NoRunnableThreadError
from repro.runtime.policy import ENGINE_NOOP_ATTR

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.events import StepRecord
    from repro.runtime.simulator import Simulator
    from repro.runtime.thread import SimThread


class Scheduler(abc.ABC):
    """Base class for all schedulers.

    Subclasses implement :meth:`select`; the optional hooks
    :meth:`on_spawn` and :meth:`on_step` let stateful schedulers track the
    execution without re-deriving it from the trace.
    """

    @abc.abstractmethod
    def select(self, sim: "Simulator") -> int:
        """Return the id of the runnable thread to step next."""

    def on_spawn(self, sim: "Simulator", thread: "SimThread") -> None:
        """Called after a thread is spawned.  Default: no-op."""

    def on_step(self, sim: "Simulator", record: "StepRecord") -> None:
        """Called after each executed step.  Default: no-op."""

    # Mark the default hooks so the engine can skip schedulers that never
    # overrode them (and elide StepRecord construction entirely — see
    # repro.runtime.policy.live_hook).  Wrapper schedulers that *forward*
    # hooks (replay, crash) override these methods, so they stay live.
    setattr(on_spawn, ENGINE_NOOP_ATTR, True)
    setattr(on_step, ENGINE_NOOP_ATTR, True)

    @staticmethod
    def _runnable(sim: "Simulator") -> List[int]:
        """Runnable thread ids, raising if there are none (a scheduler is
        never consulted on a finished simulation, so this is defensive)."""
        ids = sim.runnable_ids
        if not ids:
            raise NoRunnableThreadError("scheduler consulted with no runnable thread")
        return ids

    @staticmethod
    def _runnable_tuple(sim: "Simulator") -> Tuple[int, ...]:
        """The simulator's maintained runnable tuple (no copy), raising if
        it is empty — for per-step schedulers that only read it."""
        ids = sim.runnable_tuple
        if not ids:
            raise NoRunnableThreadError("scheduler consulted with no runnable thread")
        return ids
