"""Online health detectors: read-only observers of a running simulation.

Detectors are consulted at ``run_fast`` chunk boundaries — the same
consistent cuts the sanitizer and checkpoints use — so the elided hot
loop stays untouched and detection latency is bounded by the chunk size.
Each detector answers one question about the current cut:

========  ==========================================================
rule      fires when
========  ==========================================================
HEAL001   a watched component is NaN/±Inf (streaming NaN/Inf guard)
HEAL002   the noiseless gradient norm exploded past its baseline
HEAL003   the loss kept rising for ``patience`` consecutive chunks
HEAL004   the *retained* checkpoint no longer matches the digest it
          had at capture (the rollback target itself is damaged)
========  ==========================================================

The chaos engine's invariant monitors (:mod:`repro.faults.monitors`)
are detectors too.  A :class:`DetectorSuite` is an
:class:`~repro.runtime.simulator.Analyzer`, so ``repro chaos`` attaches
one and lets :meth:`~repro.runtime.simulator.Simulator.run_analyzed`
drive it; the heal ladder calls :meth:`DetectorSuite.check` from its own
chunk loop, because a rollback swaps the simulator it watches.

Detectors are **read-only observers**: they may ``peek`` shared memory
but never mutate it — poking, loading or storing from a detector would
make the observer part of the fault model.  Lint rule ``RPL104``
enforces this contract statically.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import Finding
from repro.errors import UnknownAddressError
from repro.runtime.simulator import Analyzer


def _segment_view(sim, name: str) -> Optional[np.ndarray]:
    """Read-only copy of a named segment (``None`` if not allocated)."""
    try:
        seg = sim.memory.segment(name)
    except UnknownAddressError:
        return None
    return np.asarray(sim.memory.peek_range(seg.base, seg.length), dtype=float)


class HealthDetector:
    """Base class: one health question, asked at chunk boundaries.

    Subclasses set :attr:`rule` and implement :meth:`check` and/or
    :meth:`final`; the contract is *read-only observation* (enforced by
    lint rule RPL104).
    """

    #: Stable finding rule id (``HEAL001``...).
    rule: str = "HEAL000"

    def on_attach(self, sim) -> None:
        """Baseline against a (presumed healthy) simulation state."""

    def check(self, sim) -> Optional[Finding]:
        """Inspect the current cut; a :class:`Finding` means unhealthy."""
        return None

    def final(self, sim) -> Iterable[Finding]:
        """Quiescence-only checks (e.g. over the whole trace)."""
        return ()

    def on_rollback(self, sim) -> None:
        """Reset transient state after the driver restored a checkpoint."""


class NanGuardDetector(HealthDetector):
    """Streaming NaN/Inf guard over a watched segment (HEAL001).

    NaN persists under ``fetch&add`` (NaN + x = NaN), so any poisoning
    of a watched component is guaranteed to still be visible at the next
    chunk boundary — this guard cannot race with the corruption.
    """

    rule = "HEAL001"

    def __init__(self, segment: str = "model") -> None:
        self.segment = segment

    def check(self, sim) -> Optional[Finding]:
        view = _segment_view(sim, self.segment)
        if view is None:
            return None
        finite = np.isfinite(view)
        if bool(finite.all()):
            return None
        bad = [int(i) for i in np.flatnonzero(~finite)[:8]]
        return Finding(
            source="heal",
            rule=self.rule,
            message=(
                f"non-finite component(s) in segment {self.segment!r} "
                f"at index(es) {bad}"
            ),
            time=sim.now,
            location=f"{self.segment}[{bad[0]}]",
        )


class GradientNormDetector(HealthDetector):
    """Gradient-norm explosion detector (HEAL002).

    Compares the *noiseless* gradient norm at the current iterate to a
    baseline captured at attach time; a factor-``threshold`` blow-up (or
    a non-finite norm) means the iterate left the basin the step size
    was tuned for — bit flips in the exponent land here even when every
    component is still finite.
    """

    rule = "HEAL002"

    def __init__(
        self,
        objective,
        segment: str = "model",
        threshold: float = 100.0,
        floor: float = 1.0,
    ) -> None:
        self.objective = objective
        self.segment = segment
        self.threshold = threshold
        self.floor = floor
        self.baseline = floor

    def on_attach(self, sim) -> None:
        view = _segment_view(sim, self.segment)
        if view is None:
            return
        norm = float(np.linalg.norm(self.objective.gradient(view)))
        if math.isfinite(norm):
            self.baseline = max(norm, self.floor)

    def check(self, sim) -> Optional[Finding]:
        view = _segment_view(sim, self.segment)
        if view is None:
            return None
        norm = float(np.linalg.norm(self.objective.gradient(view)))
        limit = self.threshold * self.baseline
        if math.isfinite(norm) and norm <= limit:
            return None
        return Finding(
            source="heal",
            rule=self.rule,
            message=(
                f"gradient norm exploded: {norm:g} > {limit:g} "
                f"(baseline {self.baseline:g} x threshold {self.threshold:g})"
            ),
            time=sim.now,
            location=f"segment {self.segment!r}",
        )


class LossDivergenceDetector(HealthDetector):
    """Loss-divergence trend detector (HEAL003).

    SGD under a sane step size makes noisy but net progress; a loss that
    sits ``factor`` times above the best value seen for ``patience``
    consecutive chunks is diverging — the signature of a corrupted
    iterate that is still numerically tame (e.g. a mantissa bit flip or
    an un-revoked duplicated update).

    ``floor`` is the absolute loss scale below which the trend test is
    mute: near the noise ball the loss fluctuates *multiplicatively*
    around tiny values, so a purely relative factor-over-best test would
    fire on every healthy converged run.
    """

    rule = "HEAL003"

    def __init__(
        self,
        objective,
        segment: str = "model",
        factor: float = 4.0,
        patience: int = 2,
        floor: float = 0.5,
    ) -> None:
        self.objective = objective
        self.segment = segment
        self.factor = factor
        self.patience = patience
        self.floor = floor
        self.best = math.inf
        self.streak = 0

    def on_attach(self, sim) -> None:
        view = _segment_view(sim, self.segment)
        if view is None:
            return
        value = float(self.objective.value(view))
        if math.isfinite(value):
            self.best = value
        self.streak = 0

    def on_rollback(self, sim) -> None:
        # The restored iterate is healthy by construction; only the
        # streak resets — the best-seen value remains a valid floor.
        self.streak = 0

    def check(self, sim) -> Optional[Finding]:
        view = _segment_view(sim, self.segment)
        if view is None:
            return None
        value = float(self.objective.value(view))
        limit = self.factor * max(self.best, self.floor)
        if not math.isfinite(value):
            self.streak += 1
        elif self.best < math.inf and value > limit:
            self.streak += 1
        else:
            self.streak = 0
            self.best = min(self.best, value)
            return None
        if self.streak < self.patience:
            return None
        return Finding(
            source="heal",
            rule=self.rule,
            message=(
                f"loss diverging: {value:g} vs best {self.best:g} for "
                f"{self.streak} consecutive chunk(s) "
                f"(factor {self.factor:g}, patience {self.patience})"
            ),
            time=sim.now,
            location=f"segment {self.segment!r}",
        )


class CheckpointDigestDetector(HealthDetector):
    """State-digest cross-check of the retained checkpoint (HEAL004).

    The rollback ladder is only as good as its rollback target.  This
    detector remembers the digest of the last verified checkpoint *at
    capture time* and re-derives it at every chunk boundary; a mismatch
    means the retained snapshot itself was corrupted in memory, and the
    driver must fall back to an older anchor instead of restoring it.
    """

    rule = "HEAL004"

    def __init__(self) -> None:
        self._checkpoint = None
        self._expected: Optional[str] = None

    def observe_checkpoint(self, checkpoint) -> None:
        """Adopt a freshly captured (healthy) checkpoint to guard."""
        self._checkpoint = checkpoint
        self._expected = checkpoint.digest()

    def on_rollback(self, sim) -> None:
        self._checkpoint = None
        self._expected = None

    def check(self, sim) -> Optional[Finding]:
        if self._checkpoint is None:
            return None
        actual = self._checkpoint.digest()
        if actual == self._expected:
            return None
        return Finding(
            source="heal",
            rule=self.rule,
            message=(
                "retained checkpoint no longer matches its capture-time "
                f"digest ({self._expected[:12]}... != {actual[:12]}...); "
                "rollback target is damaged"
            ),
            time=sim.now,
            location=f"checkpoint t={self._checkpoint.time}",
        )


class DetectorSuite(Analyzer):
    """A set of detectors checked together at each chunk boundary.

    Every firing lands in :attr:`findings`, in detector order per
    check.  As an analyzer it needs no memory log: each drain is one
    :meth:`check`, and :meth:`finish` is one more check followed by
    every detector's :meth:`~HealthDetector.final`.
    """

    requires_log = False

    def __init__(self, detectors: Sequence[HealthDetector]) -> None:
        super().__init__()
        self.detectors: Tuple[HealthDetector, ...] = tuple(detectors)

    def on_attach(self, sim) -> None:
        for detector in self.detectors:
            detector.on_attach(sim)

    def check(self, sim) -> List[Finding]:
        """Ask every detector once; returns (and keeps) what fired."""
        findings: List[Finding] = []
        for detector in self.detectors:
            finding = detector.check(sim)
            if finding is not None:
                findings.append(finding)
        self.findings.extend(findings)
        return findings

    def drain(self, sim) -> None:
        self.check(sim)

    def finish(self, sim) -> None:
        self.check(sim)
        for detector in self.detectors:
            self.findings.extend(detector.final(sim))

    def on_rollback(self, sim) -> None:
        for detector in self.detectors:
            detector.on_rollback(sim)

    def observe_checkpoint(self, checkpoint) -> None:
        for detector in self.detectors:
            observe = getattr(detector, "observe_checkpoint", None)
            if observe is not None:
                observe(checkpoint)


def default_detectors(
    objective, segment: str = "model"
) -> Tuple[HealthDetector, ...]:
    """The standard panel: NaN guard, gradient explosion, loss trend,
    checkpoint digest cross-check."""
    return (
        NanGuardDetector(segment),
        GradientNormDetector(objective, segment),
        LossDivergenceDetector(objective, segment),
        CheckpointDigestDetector(),
    )
