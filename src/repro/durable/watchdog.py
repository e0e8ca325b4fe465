"""Watchdogs for pooled execution: stall → reroute → abandon.

A process pool can wedge in ways no exception reports: a worker OOM-
killed mid-chunk, a fork that never came up, a chunk whose adversarial
schedule runs pathologically long.  The watchdog is the one way to
bound such a stall: a graded escalation ladder, reported as structured
:class:`~repro.analysis.report.Finding` objects instead of silence:

* **WD001 (stall, warning)** — no chunk completed a heartbeat within
  ``heartbeat_timeout`` seconds: the stalled chunks are *rerouted*
  (resubmitted to fresh workers; chunk results are pure functions of
  their seeds, so a duplicate in flight is harmless).
* **WD002 (abandon after reroutes, error)** — the pool stalled again
  with the reroute budget spent: the pool is abandoned and unfinished
  chunks fall back to the deterministic serial path.
* **WD003 (deadline, error)** — the pooled phase exceeded its total
  wall-clock ``deadline``: abandoned immediately, no reroute.

Watchdog timing is wall-clock by necessity, so its findings are
**harness diagnostics**: they are surfaced on stderr and via
:attr:`EnsembleWatchdog.findings`, and deliberately never enter the
deterministic reports (which must stay byte-identical across reruns,
machines and pool weather).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

#: Escalation decisions :meth:`EnsembleWatchdog.on_wait_elapsed` returns.
WAIT = "wait"
REROUTE = "reroute"
ABANDON = "abandon"


@dataclass(frozen=True)
class WatchdogPolicy:
    """Wall-clock limits for one pooled execution phase.

    Attributes:
        heartbeat_timeout: Seconds without any chunk completing before
            the pool counts as stalled; ``None`` disables stall
            detection.
        deadline: Total wall-clock budget for the pooled phase; ``None``
            disables the deadline.
        max_reroutes: Stalls answered with a reroute before the next
            stall abandons the pool.
    """

    heartbeat_timeout: Optional[float] = None
    deadline: Optional[float] = None
    max_reroutes: int = 1


class EnsembleWatchdog:
    """Tracks heartbeats and decides the escalation ladder.

    The driver calls :meth:`start` when the pooled phase begins,
    :meth:`beat` whenever any chunk completes, uses :meth:`wait_timeout`
    as its ``wait()`` timeout, and consults :meth:`on_wait_elapsed` when
    a wait round produced nothing.  Findings accumulate in
    :attr:`findings`.

    ``clock`` is injectable for deterministic tests; the default reads
    the wall clock (harness-level timing only — simulated time is
    :class:`~repro.runtime.clock.Clock` and never touched here).
    """

    def __init__(
        self,
        policy: WatchdogPolicy,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.policy = policy
        self._clock = clock if clock is not None else time.monotonic  # repro: allow(RPD201)
        self._started: Optional[float] = None
        self._last_beat: Optional[float] = None
        self.reroutes = 0
        self.findings: List[Any] = []
        # Escalations are wall-clock weather, so the counters are
        # non-deterministic telemetry (live view / exposition only).
        self._m_escalations = (
            None
            if metrics is None
            else {
                rule: metrics.counter(
                    f"repro_watchdog_{rule.lower()}_total",
                    f"watchdog {rule} escalations",
                    deterministic=False,
                )
                for rule in ("WD001", "WD002", "WD003")
            }
        )

    def _count(self, rule: str) -> None:
        if self._m_escalations is not None:
            self._m_escalations[rule].inc()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Mark the beginning of the pooled phase (resets heartbeats)."""
        now = self._clock()
        self._started = now
        self._last_beat = now

    def beat(self) -> None:
        """Record a heartbeat (some chunk completed)."""
        self._last_beat = self._clock()

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since :meth:`start`."""
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def wait_timeout(self) -> Optional[float]:
        """How long the driver may block waiting for the next completion:
        the tighter of the stall window and the remaining deadline
        (``None`` when the policy sets no limits)."""
        if self._started is None:
            self.start()
        limits = []
        if self.policy.heartbeat_timeout is not None:
            beat = self._last_beat if self._last_beat is not None else self._started
            limits.append(beat + self.policy.heartbeat_timeout - self._clock())
        if self.policy.deadline is not None:
            limits.append(self._started + self.policy.deadline - self._clock())
        if not limits:
            return None
        return max(0.0, min(limits))

    # ------------------------------------------------------------------
    def on_wait_elapsed(self, pending: int) -> str:
        """Escalate after a wait round that completed nothing.

        Returns :data:`WAIT` (limits not actually hit — keep waiting),
        :data:`REROUTE` (resubmit the stalled chunks) or
        :data:`ABANDON` (give the pool up; unfinished chunks go serial).
        """
        from repro.analysis.report import Finding

        now = self._clock()
        if (
            self.policy.deadline is not None
            and self._started is not None
            and now - self._started >= self.policy.deadline
        ):
            self.findings.append(
                Finding(
                    source="watchdog",
                    rule="WD003",
                    severity="error",
                    message=(
                        f"pooled phase exceeded its {self.policy.deadline:g}s "
                        f"wall-clock deadline with {pending} chunk(s) "
                        "unfinished; abandoning the pool (serial fallback)"
                    ),
                )
            )
            self._count("WD003")
            return ABANDON
        stalled = (
            self.policy.heartbeat_timeout is not None
            and self._last_beat is not None
            and now - self._last_beat >= self.policy.heartbeat_timeout
        )
        if not stalled:
            return WAIT
        if self.reroutes < self.policy.max_reroutes:
            self.reroutes += 1
            self._last_beat = now  # the reroute restarts the stall window
            self.findings.append(
                Finding(
                    source="watchdog",
                    rule="WD001",
                    severity="warning",
                    message=(
                        f"no chunk heartbeat for "
                        f"{self.policy.heartbeat_timeout:g}s with {pending} "
                        f"chunk(s) pending; rerouting them to fresh workers "
                        f"(reroute {self.reroutes}/{self.policy.max_reroutes})"
                    ),
                )
            )
            self._count("WD001")
            return REROUTE
        self.findings.append(
            Finding(
                source="watchdog",
                rule="WD002",
                severity="error",
                message=(
                    f"pool stalled again with the reroute budget "
                    f"({self.policy.max_reroutes}) spent and {pending} "
                    "chunk(s) pending; abandoning the pool (serial fallback)"
                ),
            )
        )
        self._count("WD002")
        return ABANDON
