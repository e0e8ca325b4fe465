"""The rollback retry ladder: turn a detection into a recovery.

The driver (:func:`run_with_healing`) runs any registered algorithm
variant under any fault plan in ``run_fast`` chunks, checkpointing at
every healthy chunk boundary.  When a detector fires it climbs a ladder
that mirrors the watchdog's WD001→WD003 stall ladder, but at the
numerical layer:

* **L0 — rollback + retry.** Restore the last healthy checkpoint via
  :meth:`~repro.durable.checkpoint.Checkpoint.restore_by_replay` (the
  replay re-certifies determinism, corruption re-fires included) and
  retry the chunk with the corruption injectors suppressed for a few
  chunks — the transient-SDC model.  Each *consecutive* retry of the
  same trouble spot costs exponentially more of the retry budget
  (1, 2, 4, ... units): genuine transients are cheap, deterministic
  repeat offenders drain the budget fast.
* **L1 — shrink the step size** (MindTheStep-style): a smaller step
  tolerates perturbed iterates that the tuned step cannot.
* **L2 — fall back to a safer algorithm variant** (e.g. hogwild →
  locked), keeping the model and iteration budget via a segment-wise
  carry into the fresh lineage.
* **L3 — abandon**, with everything that happened recorded in a
  structured :class:`HealReport`.

Suppression windows are logical-time intervals handed to every freshly
built engine (:meth:`FaultInjectionScheduler.set_suppression`), so the
corruption pattern stays a pure function of (spec, seed, windows) and
checkpoint replay remains certifiable after any number of rollbacks.

Degraded lineages (L1/L2) cannot replay the old decision prefix — the
program changed — so they restart logical time at zero and carry only
the ``model`` and ``iteration_counter`` segments from the last healthy
checkpoint.  That transplant is sound because
:func:`~repro.core.algorithm.build_zoo_simulation` allocates exactly
those two segments first for every variant (the layout prefix is
shared), and it preserves the global iteration budget: work already
claimed is not redone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithm import build_zoo_simulation, get_algorithm
from repro.durable.checkpoint import Checkpoint
from repro.errors import ConfigurationError
from repro.faults.spec import CORRUPTION_SPECS, FaultSpec
from repro.heal.detectors import (
    CheckpointDigestDetector,
    DetectorSuite,
    HealthDetector,
    default_detectors,
)
from repro.runtime.events import IterationRecord
from repro.sched.registry import build_scheduler
from repro.sched.replay import RecordingScheduler

#: Buckets for the recovery-latency histogram (logical steps between the
#: restored cut and the detection point; bounded by the chunk size times
#: the detector patience).
LATENCY_BUCKETS = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

#: Segments carried into a degraded lineage — the shared layout prefix
#: every zoo variant allocates first.
CARRY_SEGMENTS = ("model", "iteration_counter")


@dataclass(frozen=True)
class HealPolicy:
    """Knobs of the rollback retry ladder (plain values, fingerprintable).

    Attributes:
        check_interval: Chunk size in logical steps; detectors run (and
            checkpoints are cut) at these boundaries.
        retry_budget: Rollback budget units per ladder level; the i-th
            consecutive retry of the same incident costs ``2**(i-1)``.
        disarm_chunks: Chunks of corruption suppression after each
            rollback (the transient-SDC assumption).
        step_shrink: Step-size multiplier per L1 degradation.
        max_step_shrinks: L1 rungs before escalating to L2.
        fallback_algorithm: Registered variant to fall back to at L2.
        max_total_steps: Hard cap on logical steps across all attempts —
            the backstop that turns any pathological loop (e.g. a crash
            plan deadlocking the fallback's lock) into a reported
            abandonment instead of a hang.
    """

    check_interval: int = 64
    retry_budget: int = 8
    disarm_chunks: int = 1
    step_shrink: float = 0.5
    max_step_shrinks: int = 2
    fallback_algorithm: str = "locked"
    max_total_steps: int = 200_000

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise ConfigurationError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.disarm_chunks < 1:
            raise ConfigurationError(
                f"disarm_chunks must be >= 1, got {self.disarm_chunks}"
            )
        if not 0.0 < self.step_shrink < 1.0:
            raise ConfigurationError(
                f"step_shrink must be in (0, 1), got {self.step_shrink}"
            )
        if self.max_step_shrinks < 0:
            raise ConfigurationError(
                f"max_step_shrinks must be >= 0, got {self.max_step_shrinks}"
            )
        if self.max_total_steps < 1:
            raise ConfigurationError(
                f"max_total_steps must be >= 1, got {self.max_total_steps}"
            )


@dataclass
class HealReport:
    """What the ladder did: attempts, rollbacks, degradations, health.

    ``health`` ends as ``"healthy"`` (converged without degradations),
    ``"degraded"`` (finished, but on a lower rung), or ``"abandoned"``.
    """

    detections: Dict[str, int] = field(default_factory=dict)
    rollbacks: int = 0
    retries: int = 0
    budget_spent: int = 0
    degradations: List[str] = field(default_factory=list)
    recovery_latencies: List[int] = field(default_factory=list)
    health: str = "healthy"
    final_algorithm: str = ""
    final_step_size: float = 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-safe roll-up for reports and journals."""
        return {
            "detections": {
                rule: count for rule, count in sorted(self.detections.items())
            },
            "rollbacks": self.rollbacks,
            "retries": self.retries,
            "budget_spent": self.budget_spent,
            "degradations": list(self.degradations),
            "recovery_latencies": list(self.recovery_latencies),
            "health": self.health,
            "final_algorithm": self.final_algorithm,
            "final_step_size": self.final_step_size,
        }


@dataclass
class HealRunResult:
    """Outcome of one healed run.

    ``steps`` counts every logical step executed, replays and abandoned
    attempts included — the true cost of survival.  ``corruptions``
    counts every corruption event *injected* across all attempts
    (rolled-back timelines included); ``iterations`` and ``crashes``
    describe the final surviving timeline.
    """

    x_final: np.ndarray
    report: HealReport
    steps: int
    iterations: int
    corruptions: int
    crashes: int


def _carry_segments(
    sim, checkpoint: Checkpoint, names: Sequence[str] = CARRY_SEGMENTS
) -> None:
    """Transplant named segments of a checkpoint into a fresh simulator.

    Driver-level pokes (unlogged, no logical time) — legal because the
    target is fresh and the segments sit at the same addresses in every
    zoo variant (allocated first by ``build_zoo_simulation``).
    """
    for name in names:
        seg = sim.memory.segment(name)
        if seg.base + seg.length > len(checkpoint.memory_values):
            raise ConfigurationError(
                f"checkpoint image too small to carry segment {name!r}"
            )
        for offset in range(seg.length):
            address = seg.base + offset
            sim.memory.poke(address, checkpoint.memory_values[address])


def run_with_healing(
    algorithm: str,
    objective,
    fault_spec: FaultSpec,
    adversary: str = "random",
    num_threads: int = 4,
    step_size: float = 0.05,
    iterations: int = 200,
    x0: Optional[np.ndarray] = None,
    seed: int = 0,
    policy: Optional[HealPolicy] = None,
    detectors: Optional[Sequence[HealthDetector]] = None,
    metrics: Optional[Any] = None,
) -> HealRunResult:
    """Run ``algorithm`` under ``fault_spec`` with the healing ladder on.

    Deterministic given the arguments: the schedule, the corruption
    pattern, every detection, rollback and degradation — and therefore
    the final model — are pure functions of the config, which is what
    lets E14 journal, resume and byte-compare healed runs.

    ``metrics`` (a :class:`~repro.obs.registry.MetricsRegistry`) gets
    per-event ``repro_heal_*`` counters and the recovery-latency
    histogram; pass ``None`` for zero overhead.
    """
    policy = policy if policy is not None else HealPolicy()
    suite = DetectorSuite(
        detectors if detectors is not None else default_detectors(objective)
    )
    report = HealReport(final_algorithm=algorithm, final_step_size=step_size)

    m_detections = m_rollbacks = m_degradations = h_latency = None
    if metrics is not None:
        m_detections = metrics.counter(
            "repro_heal_detections_total", "health detector firings"
        )
        m_rollbacks = metrics.counter(
            "repro_heal_rollbacks_total", "checkpoint rollbacks performed"
        )
        m_degradations = metrics.counter(
            "repro_heal_degradations_total", "ladder degradations taken"
        )
        h_latency = metrics.histogram(
            "repro_heal_recovery_latency_steps",
            buckets=LATENCY_BUCKETS,
            help="logical steps between restored cut and detection",
        )

    # Mutable lineage configuration, read by the closures below.
    current_algorithm = algorithm
    current_step = step_size
    shrinks = 0
    windows: List[Tuple[int, int]] = []
    lineage_carry: Optional[Checkpoint] = None

    def make_engine():
        engine = fault_spec.build(
            build_scheduler(adversary, seed=seed),
            seed=seed,
            num_threads=num_threads,
        )
        engine.set_suppression(windows)
        if metrics is not None:
            engine.attach_metrics(metrics)
        return engine

    def build_sim(scheduler):
        sim, _, _ = build_zoo_simulation(
            get_algorithm(current_algorithm),
            objective,
            scheduler,
            num_threads=num_threads,
            step_size=current_step,
            iterations=iterations,
            x0=x0,
            seed=seed,
        )
        if lineage_carry is not None:
            _carry_segments(sim, lineage_carry)
        return sim

    def fresh_lineage():
        engine = make_engine()
        sim = build_sim(RecordingScheduler(engine))
        return sim, engine

    sim, engine = fresh_lineage()
    suite.attach(sim)
    healthy = Checkpoint.capture(sim, label="initial")
    anchor = healthy  # lineage t=0 fallback if the retained cut is damaged
    suite.observe_checkpoint(healthy)

    total_steps = 0
    consecutive = 0
    budget = policy.retry_budget
    # Injected-corruption accounting across timelines: replayed prefix
    # corruptions re-fire on every restore, so count only the *delta*
    # past each engine's post-restore baseline.
    corruption_baseline = engine.corruptions
    corruptions_injected = 0
    # Each rebuilt engine re-arms its own per-timeline max_corruptions,
    # so the plan's cap is additionally enforced here at session level:
    # once the injected total reaches it, disarm windows turn permanent.
    caps = [
        spec.max_corruptions
        for spec in fault_spec.injectors
        if isinstance(spec, CORRUPTION_SPECS)
    ]
    session_cap = sum(caps) if caps and None not in caps else None

    while True:
        total_steps += sim.run_fast(max_steps=policy.check_interval)
        corruptions_injected += max(0, engine.corruptions - corruption_baseline)
        corruption_baseline = engine.corruptions
        if total_steps > policy.max_total_steps:
            report.health = "abandoned"
            report.degradations.append("step-limit")
            break
        findings = suite.check(sim)
        if not findings:
            consecutive = 0
            healthy = Checkpoint.capture(sim, label=f"t={sim.now}")
            suite.observe_checkpoint(healthy)
            if sim.runnable_count == 0:
                break
            continue

        # --- incident ------------------------------------------------
        for finding in findings:
            report.detections[finding.rule] = (
                report.detections.get(finding.rule, 0) + 1
            )
            if m_detections is not None:
                m_detections.inc()
        if any(f.rule == CheckpointDigestDetector.rule for f in findings):
            # The retained cut itself is damaged: never restore it.
            healthy = anchor
            suite.observe_checkpoint(healthy)
        latency = max(0, sim.now - healthy.time)
        report.recovery_latencies.append(latency)
        if h_latency is not None:
            h_latency.observe(latency)

        cost = 1 << consecutive  # exponential backoff in budget units
        if cost <= budget:
            # L0: rollback + suppressed retry.
            budget -= cost
            report.budget_spent += cost
            consecutive += 1
            report.rollbacks += 1
            report.retries += 1
            if m_rollbacks is not None:
                m_rollbacks.inc()
            disarm_until = (
                healthy.time + policy.disarm_chunks * policy.check_interval
            )
            if session_cap is not None and corruptions_injected >= session_cap:
                disarm_until = policy.max_total_steps + 1
            windows.append((healthy.time, disarm_until))
            engine = make_engine()
            sim = healthy.restore_by_replay(build_sim, engine)
            suite.on_rollback(sim)
            corruption_baseline = engine.corruptions
            continue

        # --- budget exhausted: climb the ladder ----------------------
        if shrinks < policy.max_step_shrinks:
            shrinks += 1
            current_step *= policy.step_shrink
            report.degradations.append(f"shrink-step({current_step:g})")
        elif current_algorithm != policy.fallback_algorithm:
            current_algorithm = policy.fallback_algorithm
            report.degradations.append(f"fallback({current_algorithm})")
        else:
            report.health = "abandoned"
            break
        report.health = "degraded"
        if m_degradations is not None:
            m_degradations.inc()
        budget = policy.retry_budget
        consecutive = 0
        lineage_carry = healthy
        restart_disarm = policy.disarm_chunks * policy.check_interval
        if session_cap is not None and corruptions_injected >= session_cap:
            restart_disarm = policy.max_total_steps + 1
        windows = [(0, restart_disarm)]
        sim, engine = fresh_lineage()
        corruption_baseline = engine.corruptions
        suite.attach(sim)
        suite.on_rollback(sim)
        healthy = Checkpoint.capture(
            sim, label=f"degraded:{len(report.degradations)}"
        )
        anchor = healthy
        suite.observe_checkpoint(healthy)

    seg = sim.memory.segment("model")
    x_final = np.asarray(
        sim.memory.peek_range(seg.base, seg.length), dtype=float
    )
    report.final_algorithm = current_algorithm
    report.final_step_size = current_step
    iterations_done = sum(
        1 for event in sim.trace if isinstance(event, IterationRecord)
    )
    return HealRunResult(
        x_final=x_final,
        report=report,
        steps=total_steps,
        iterations=iterations_done,
        corruptions=corruptions_injected,
        crashes=sim.crashed_count,
    )
