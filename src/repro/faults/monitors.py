"""Invariant monitors — cheap runtime checks for chaos runs.

A fault campaign is only evidence if someone watches the invariants
while the faults fire.  The chaos monitors are
:class:`~repro.heal.detectors.HealthDetector` subclasses — read-only
observers, which lint rule ``RPL104`` enforces — that the chaos worker
gathers into a :class:`~repro.heal.detectors.DetectorSuite` and
attaches to its simulation as an analyzer.  They check at two
granularities:

* **periodic** (:meth:`~repro.heal.detectors.HealthDetector.check`) —
  O(d) peeks at shared memory at every ``run_fast`` chunk boundary of
  :meth:`~repro.runtime.simulator.Simulator.run_analyzed`, i.e. every
  ``check_interval`` steps.  No scheduler hook is involved, so the
  engine's elided ``run_fast`` loop is untouched (the ``TraceConfig``
  cost model: pay only for what you asked to observe);
* **final** (:meth:`~repro.heal.detectors.HealthDetector.final`) — run
  once at quiescence over the collected trace (e.g. Lemma 6.1's total
  order needs every iteration record).

Every firing is a :class:`Violation`; a campaign collects them all into
its robustness report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.analysis.lemmas import iteration_order_findings
from repro.analysis.report import Finding
from repro.errors import UnknownAddressError
from repro.heal.detectors import HealthDetector
from repro.runtime.events import CrashEvent, IterationRecord


@dataclass(frozen=True)
class Violation(Finding):
    """One detected invariant violation — a :class:`Finding` whose
    ``source`` is the monitor name and whose ``rule`` is
    ``monitor:<name>``.

    The chaos engine and the sanitizer share the report model (one
    dataclass, one serializer).
    """


def _violation(monitor: HealthDetector, sim, message: str) -> Violation:
    return Violation(
        source=monitor.name, rule=monitor.rule, message=message, time=sim.now
    )


class CounterMonotonicityMonitor(HealthDetector):
    """The shared iteration counter only moves forward, in integer
    amounts, and never faster than one claim per executed step."""

    name = "counter-monotonic"
    rule = "monitor:counter-monotonic"

    def __init__(self, segment: str = "iteration_counter") -> None:
        self.segment = segment
        self._address: Optional[int] = None
        self._missing = False
        self._last_value: Optional[float] = None
        self._last_time = 0

    def _resolve(self, sim) -> Optional[int]:
        if self._address is None and not self._missing:
            try:
                self._address = sim.memory.segment(self.segment).base
            except UnknownAddressError:
                self._missing = True  # workload has no counter; stay quiet
        return self._address

    def check(self, sim) -> Optional[Violation]:
        address = self._resolve(sim)
        if address is None:
            return None
        value = sim.memory.peek(address)
        now = sim.now
        try:
            if not math.isfinite(value) or value != int(value):
                return _violation(
                    self, sim, f"counter holds non-integral value {value!r}"
                )
            if self._last_value is not None:
                if value < self._last_value:
                    return _violation(
                        self, sim,
                        f"counter decreased: {self._last_value} -> {value}",
                    )
                if value - self._last_value > now - self._last_time:
                    return _violation(
                        self, sim,
                        f"counter advanced by {value - self._last_value} in "
                        f"{now - self._last_time} steps (more than one claim "
                        f"per step)",
                    )
            return None
        finally:
            self._last_value = value
            self._last_time = now


class ModelFiniteMonitor(HealthDetector):
    """Every model entry stays finite (no NaN/inf blow-up) — the cheap
    proxy for "the survivors are still doing SGD, not diverging"."""

    name = "model-finite"
    rule = "monitor:model-finite"

    def __init__(self, segment: str = "model") -> None:
        self.segment = segment
        self._range: Optional[tuple] = None
        self._missing = False

    def check(self, sim) -> Optional[Violation]:
        if self._range is None:
            if self._missing:
                return None
            try:
                seg = sim.memory.segment(self.segment)
            except UnknownAddressError:
                self._missing = True
                return None
            self._range = (seg.base, seg.length)
        base, length = self._range
        for offset, value in enumerate(sim.memory.peek_range(base, length)):
            if not math.isfinite(value):
                return _violation(self, sim, f"model[{offset}] is {value!r}")
        return None


class CrashBudgetMonitor(HealthDetector):
    """The adversary never exceeds ``n - 1`` crashes, and the simulator's
    O(1) crash counter agrees with the trace's CrashEvents."""

    name = "crash-budget"
    rule = "monitor:crash-budget"

    def check(self, sim) -> Optional[Violation]:
        n = len(sim.threads)
        if n and sim.crashed_count > n - 1:
            return _violation(
                self, sim,
                f"{sim.crashed_count} crashes exceed the n-1 budget (n={n})",
            )
        return None

    def final(self, sim) -> Iterator[Violation]:
        events = sum(1 for e in sim.trace if isinstance(e, CrashEvent))
        if events != sim.crashed_count:
            yield _violation(
                self, sim,
                f"crash accounting mismatch: {events} CrashEvents vs "
                f"crashed_count={sim.crashed_count}",
            )


class IterationOrderMonitor(HealthDetector):
    """Lemma 6.1's total order: iteration records are totally ordered by
    their first model update, claimed indices are unique, and each
    record's internal timestamps are consistent."""

    name = "iteration-order"
    rule = "monitor:iteration-order"

    def final(self, sim) -> Iterator[Violation]:
        # Shared with the analysis layer: the sanitizer's final pass runs
        # the same checker, so both flag identical conditions with
        # identical messages (see repro.analysis.lemmas).
        records = [e for e in sim.trace if isinstance(e, IterationRecord)]
        for finding in iteration_order_findings(records, source=self.name):
            yield _violation(self, sim, finding.message)


def default_monitors(
    model_segment: str = "model",
    counter_segment: str = "iteration_counter",
) -> List[HealthDetector]:
    """The standard chaos-run monitor set."""
    return [
        CounterMonotonicityMonitor(counter_segment),
        ModelFiniteMonitor(model_segment),
        CrashBudgetMonitor(),
        IterationOrderMonitor(),
    ]
