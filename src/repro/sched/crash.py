"""Crash-injecting scheduler wrapper.

The asynchronous shared-memory model lets the adversary crash up to
``n - 1`` threads.  :class:`CrashScheduler` wraps any inner scheduler and
fires configured crashes either at absolute times or after a thread has
taken a given number of steps — e.g. to kill a thread mid-update and
check that the survivors still converge (Algorithm 1 is lock-free, so
they must).

Plans that cannot fire are never silently forgotten: a plan whose firing
would exhaust the ``n - 1`` crash budget is skipped with a
:class:`CrashBudgetWarning`, a plan whose victim already crashed or
finished is retired immediately (it is not re-examined on every
``select``), and both kinds are reported through
:attr:`CrashScheduler.unfired_plans`.

For richer fault models — probabilistic/adaptive crashes, stalls, torn
updates — see :mod:`repro.faults`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Tuple

from repro.sched.base import Scheduler, WrapperScheduler


class CrashBudgetWarning(RuntimeWarning):
    """A due crash plan was skipped because firing it would have
    exhausted the model's ``n - 1`` crash budget."""


@dataclass(frozen=True)
class CrashPlan:
    """One scheduled crash.

    Attributes:
        thread_id: Victim thread.
        at_time: Crash as soon as logical time reaches this value
            (use ``after_steps`` instead for step-count triggers).
        after_steps: Crash once the victim has executed this many of its
            own steps; ``-1`` disables the trigger.
    """

    thread_id: int
    at_time: int = -1
    after_steps: int = -1


class CrashScheduler(WrapperScheduler):
    """Delegate scheduling to ``inner``, injecting crashes per ``plans``.

    Crashes are injected at selection points (before choosing the next
    thread), which in the model is exactly when the adversary acts.
    """

    def __init__(self, inner: Scheduler, plans: List[CrashPlan]) -> None:
        super().__init__(inner)
        self._pending = list(plans)
        self._unfired: List[Tuple[CrashPlan, str]] = []

    @property
    def pending_plans(self) -> List[CrashPlan]:
        """Plans that have not fired and may still become due."""
        return list(self._pending)

    @property
    def unfired_plans(self) -> List[CrashPlan]:
        """Plans retired without firing (budget-skipped or dead victim)."""
        return [plan for plan, _reason in self._unfired]

    @property
    def unfired(self) -> Tuple[Tuple[CrashPlan, str], ...]:
        """Retired plans with the reason each one never fired."""
        return tuple(self._unfired)

    def _fire_due(self, sim) -> None:
        still_pending = []
        for plan in self._pending:
            thread = sim.threads[plan.thread_id]
            if not thread.is_runnable:
                # The victim crashed or finished before the trigger: the
                # plan can never fire, so retire it now instead of
                # re-examining it on every future select.
                self._unfired.append((plan, f"victim-{thread.state.value}"))
                continue
            due_time = plan.at_time >= 0 and sim.now >= plan.at_time
            due_steps = (
                plan.after_steps >= 0 and thread.steps_taken >= plan.after_steps
            )
            if not (due_time or due_steps):
                still_pending.append(plan)
                continue
            # Respect the n-1 crash budget: keeping at least one runnable
            # thread also guarantees the simulator-level budget holds.
            if sim.runnable_count > 1:
                sim.crash(plan.thread_id)
            else:
                warnings.warn(
                    f"{plan} skipped: firing would leave no runnable "
                    f"thread (n-1 crash budget)",
                    CrashBudgetWarning,
                    stacklevel=3,
                )
                self._unfired.append((plan, "crash-budget"))
        self._pending = still_pending

    def select(self, sim) -> int:
        if self._pending:
            self._fire_due(sim)
        return self.inner.select(sim)
