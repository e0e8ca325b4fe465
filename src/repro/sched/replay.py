"""Schedule recording and replay.

Any execution in this model is fully determined by (programs, seeds,
schedule); the first two are already deterministic, so capturing the
schedule — the sequence of thread ids the scheduler picked — makes any
run exactly reproducible, shareable as a plain list of ints, and
*minimizable* (shrink a failing schedule by hand or with a fuzzer and
replay it).  :class:`RecordingScheduler` wraps any scheduler and captures
its decisions; :class:`ReplayScheduler` plays a captured schedule back.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ReplayDivergenceError
from repro.sched.base import Scheduler, WrapperScheduler


class RecordingScheduler(WrapperScheduler):
    """Wrap ``inner`` and record every decision in :attr:`schedule`."""

    def __init__(self, inner: Scheduler) -> None:
        super().__init__(inner)
        self.schedule: List[int] = []

    def select(self, sim) -> int:
        choice = self.inner.select(sim)
        self.schedule.append(int(choice))
        return choice


class PrefixReplayScheduler(WrapperScheduler):
    """Play a recorded decision prefix, then hand control to ``inner``.

    The restore-by-replay path of :class:`repro.durable.checkpoint.
    Checkpoint` drives a fresh simulation through the first ``len(prefix)``
    decisions of a recorded run and then lets the run's real scheduler
    continue.  In ``verify`` mode (the default) ``inner`` is consulted on
    every prefix step and must agree with the recording: that both
    *certifies* determinism (a disagreement means the replayed run is not
    the recorded run, raised as :class:`ReplayDivergenceError`) and advances the
    inner scheduler's internal state — RNG draws, adaptive histories,
    fault-injection budgets — to exactly what it was at the cut, so the
    post-prefix continuation is byte-identical to the uninterrupted run.
    With ``verify=False`` the prefix is forced without consulting
    ``inner`` (only sound for stateless schedulers).

    Decisions made so far (prefix and beyond) accumulate in
    :attr:`decisions`, so a restored run can itself be checkpointed again.
    """

    def __init__(
        self, inner: Scheduler, prefix: Sequence[int], verify: bool = True
    ) -> None:
        super().__init__(inner)
        self._prefix = [int(s) for s in prefix]
        self._cursor = 0
        self.verify = verify
        self.decisions: List[int] = []

    @property
    def in_prefix(self) -> bool:
        """Whether the next decision still comes from the recording."""
        return self._cursor < len(self._prefix)

    @property
    def remaining(self) -> int:
        """Prefix decisions left to replay."""
        return len(self._prefix) - self._cursor

    def select(self, sim) -> int:
        if self._cursor < len(self._prefix):
            recorded = self._prefix[self._cursor]
            self._cursor += 1
            if self.verify:
                choice = int(self.inner.select(sim))
                if choice != recorded:
                    raise ReplayDivergenceError(
                        f"replay divergence at decision {self._cursor - 1}: "
                        f"inner scheduler picked thread {choice}, recording "
                        f"says {recorded} — the replayed run is not the "
                        "recorded run",
                        step_index=self._cursor - 1,
                        expected=recorded,
                        actual=choice,
                    )
            self.decisions.append(recorded)
            return recorded
        choice = int(self.inner.select(sim))
        self.decisions.append(choice)
        return choice


class ReplayScheduler(Scheduler):
    """Play back a recorded schedule, decision for decision.

    Args:
        schedule: The thread-id sequence to replay.
        strict: When True (default), running out of schedule or hitting a
            non-runnable choice raises :class:`ReplayDivergenceError` — replay
            divergence means the run being replayed differs from the run
            that was recorded, which should never pass silently.  With
            ``strict=False`` the scheduler falls back to the first
            runnable thread instead (useful while shrinking schedules).
    """

    def __init__(self, schedule: Sequence[int], strict: bool = True) -> None:
        self._schedule = [int(s) for s in schedule]
        self._cursor = 0
        self.strict = strict

    @property
    def remaining(self) -> int:
        """Decisions left in the schedule."""
        return len(self._schedule) - self._cursor

    def select(self, sim) -> int:
        runnable = self._runnable(sim)
        if self._cursor >= len(self._schedule):
            if self.strict:
                raise ReplayDivergenceError(
                    "replay schedule exhausted but the simulation wants "
                    f"another step (played {self._cursor} decisions)",
                    step_index=self._cursor,
                    expected=-1,
                    actual=runnable[0],
                )
            return runnable[0]
        choice = self._schedule[self._cursor]
        self._cursor += 1
        if choice not in runnable:
            if self.strict:
                raise ReplayDivergenceError(
                    f"replay divergence at decision {self._cursor - 1}: "
                    f"recorded thread {choice} is not runnable "
                    f"(runnable: {runnable})",
                    step_index=self._cursor - 1,
                    expected=choice,
                    actual=-1,
                )
            return runnable[0]
        return choice
