"""Crash recovery: respawn crashed threads so they rejoin the run.

The asynchronous shared-memory model lets the adversary crash up to
``n - 1`` threads — and nothing stops the *system* from spawning a fresh
thread afterwards: a recovered thread is simply a new thread that reads
the shared state (model X, iteration counter C) and participates like
any other.  Algorithm 1 needs no per-thread state for correctness, which
is exactly the lock-free property; respawning demonstrates it
constructively instead of by survivor-counting.

:class:`Respawner` is an :class:`~repro.runtime.simulator.Analyzer`:
attached to a simulation driven by :meth:`~repro.runtime.simulator.
Simulator.run_analyzed`, it polls the O(1) crash counter at every
``run_fast`` chunk boundary (the only places the engine is paused),
tallies fresh victims per lineage and respawns them.  The chunked
schedule is step-for-step identical to one uninterrupted run.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from repro.runtime.simulator import Analyzer
from repro.runtime.thread import SimThread, ThreadState

#: A factory building the replacement program for one crashed thread.
ProgramFactory = Callable[[SimThread], "object"]


class Respawner(Analyzer):
    """Tally crashed threads per lineage and respawn them between chunks.

    Attach it after any analyzer that must see a chunk's cut before the
    replacements join (the chaos worker attaches its monitors first).
    A respawn after the last chunk leaves a thread runnable, so
    :meth:`~repro.runtime.simulator.Simulator.run_analyzed` keeps going.

    Args:
        program_factory: Maps a crashed :class:`SimThread` to the
            replacement :class:`~repro.runtime.program.Program`; ``None``
            disables respawning (crashes are still tallied).
        max_respawns: Cap on total respawns; ``None`` means unlimited
            (still bounded in practice — each respawn requires a crash,
            and crash budgets bound those).

    Attributes:
        respawned: Crashed thread id -> replacement thread id; a
            replacement is named ``"respawn-<crashed_id>"``.
        respawn_denied: Crashes left unrecovered because the
            ``max_respawns`` budget was already spent.
        crash_tally: Crashes per *lineage*, keyed by the original thread
            id: a respawn that itself crashes counts against the thread
            it replaced, transitively — so a single pathologically
            doomed worker is distinguishable from crashes spread across
            the ensemble.
    """

    requires_log = False

    def __init__(
        self,
        program_factory: Optional[ProgramFactory] = None,
        max_respawns: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.program_factory = program_factory
        self.max_respawns = max_respawns
        self.respawned: Dict[int, int] = {}
        self.respawn_denied = 0
        self.crash_tally: Dict[int, int] = {}
        self._handled: Set[int] = set()
        # Replacement thread id -> the lineage root it (transitively)
        # replaced, so crash_tally attributes a respawn's own crash to
        # the original worker's lineage.
        self._lineage: Dict[int, int] = {}

    def drain(self, sim) -> None:
        if sim.crashed_count <= len(self._handled):
            return
        for thread in sim.threads:
            if (
                thread.state is not ThreadState.CRASHED
                or thread.thread_id in self._handled
            ):
                continue
            self._handled.add(thread.thread_id)
            root = self._lineage.get(thread.thread_id, thread.thread_id)
            self.crash_tally[root] = self.crash_tally.get(root, 0) + 1
            if self.program_factory is None:
                continue
            if (
                self.max_respawns is not None
                and len(self.respawned) >= self.max_respawns
            ):
                self.respawn_denied += 1
                continue
            replacement = sim.spawn(
                self.program_factory(thread),
                name=f"respawn-{thread.thread_id}",
            )
            self._lineage[replacement.thread_id] = root
            self.respawned[thread.thread_id] = replacement.thread_id
