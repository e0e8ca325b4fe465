"""Chaos engine — composable fault injection for the shared-memory model.

The paper's robustness claims quantify over *all* legal adversaries:
crashes of up to ``n - 1`` threads at arbitrary points and arbitrary
delays.  A handful of hand-picked :class:`~repro.sched.crash.CrashPlan`
wrappers cannot sweep that space.  This package provides the machinery a
systematic robustness study needs:

* :mod:`repro.faults.spec` — a small declarative plan DSL
  (:class:`FaultSpec` composing probabilistic/adaptive crash policies,
  stall windows and torn-update injection) that builds a seeded
  :class:`~repro.faults.injectors.FaultInjectionScheduler` around any
  inner scheduler;
* :mod:`repro.faults.recovery` — :func:`run_with_recovery`, which
  respawns crashed SGD threads so they re-read shared state and rejoin
  (legal in the model: a recovered thread is simply a new thread), a
  constructive demonstration of the lock-free progress guarantee;
* :mod:`repro.faults.monitors` — cheap invariant monitors (counter
  monotonicity, model-norm finiteness, crash-budget accounting,
  Lemma 6.1 iteration-order consistency) run every ``check_interval``
  steps so ``run_fast`` stays fast when they are off;
* :mod:`repro.faults.campaign` — a campaign runner gridding fault specs
  over seeds on the process-pool ensemble and emitting a robustness
  report (survival rate, convergence vs fault intensity, recovered
  threads), exposed on the CLI as ``python -m repro chaos``.
"""

from repro.faults.spec import (
    AdaptiveCrashSpec,
    FaultSpec,
    ProbabilisticCrashSpec,
    StallSpec,
    TornUpdateSpec,
)
from repro.faults.injectors import (
    AdaptiveCrashInjector,
    FaultInjectionScheduler,
    FaultInjector,
    ProbabilisticCrashInjector,
    StallInjector,
    TornUpdateInjector,
)
from repro.faults.monitors import (
    CounterMonotonicityMonitor,
    CrashBudgetMonitor,
    InvariantMonitor,
    IterationOrderMonitor,
    ModelFiniteMonitor,
    MonitorSuite,
    Violation,
    default_monitors,
)
from repro.faults.recovery import RecoveryReport, run_with_recovery
from repro.faults.campaign import (
    CampaignConfig,
    CampaignReport,
    ChaosWorkload,
    FaultRunOutcome,
    outcome_from_payload,
    outcome_to_payload,
    preset_specs,
    run_campaign,
)

__all__ = [
    "FaultSpec",
    "ProbabilisticCrashSpec",
    "AdaptiveCrashSpec",
    "StallSpec",
    "TornUpdateSpec",
    "FaultInjector",
    "FaultInjectionScheduler",
    "ProbabilisticCrashInjector",
    "AdaptiveCrashInjector",
    "StallInjector",
    "TornUpdateInjector",
    "InvariantMonitor",
    "MonitorSuite",
    "Violation",
    "CounterMonotonicityMonitor",
    "ModelFiniteMonitor",
    "CrashBudgetMonitor",
    "IterationOrderMonitor",
    "default_monitors",
    "run_with_recovery",
    "RecoveryReport",
    "ChaosWorkload",
    "CampaignConfig",
    "CampaignReport",
    "FaultRunOutcome",
    "outcome_from_payload",
    "outcome_to_payload",
    "preset_specs",
    "run_campaign",
]
