"""E14 — the resilience grid: every variant's survival envelope.

E13 measures how every algorithm variant *converges* under adversarial
scheduling; E14 measures whether it *survives* silent data corruption.
The grid is algorithm × corruption plan × seed: each cell runs the
variant under a seeded value-corruption fault plan (bit flips, NaN/Inf
poison, duplicated/dropped writes — :func:`repro.faults.campaign.
corruption_specs`) with the self-healing ladder of
:func:`repro.heal.rollback.run_with_healing` switched on, and records
what the ladder did: detector firings per rule, rollbacks, retries,
degradations taken, recovery latencies, final health and final
``||x − x*||``.

Cells run through :func:`repro.experiments.ensemble.run_ensemble`, so
the grid parallelizes across processes (``--jobs``) and journals for
kill/resume with byte-identical reports either way — the properties the
CI heal job pins.

Acceptance: no cell is abandoned and every cell converges — corruption
is *survived*, not merely observed.  The report additionally counts
``recovered_cells`` (detected → rolled back → finished healthy), the
number CI asserts to be ≥ 1.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.algorithm import algorithm_names
from repro.errors import ConfigurationError
from repro.experiments.ensemble import EnsemblePool, run_ensemble
from repro.experiments.runner import ExperimentResult
from repro.faults.spec import (
    BitFlipSpec,
    DroppedWriteSpec,
    DuplicateWriteSpec,
    FaultSpec,
    PoisonSpec,
)
from repro.heal.rollback import HealPolicy, run_with_healing
from repro.metrics.report import Table
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic

#: The default algorithm panel: the lock-free baseline, the wait-free
#: racer and the lock-based fallback target.
HEAL_ALGORITHMS: Tuple[str, ...] = ("epoch-sgd", "hogwild", "locked")


def heal_plan_specs() -> Dict[str, FaultSpec]:
    """Named plans the resilience grid accepts (``--plans name,...``).

    Deliberately *gentler* than the chaos-campaign corruption presets
    (:func:`repro.faults.campaign.corruption_specs`): the campaign wants
    corruption to fire hard in an unhealed run, whereas the grid wants
    occasional transients so the ladder's L0 rollback is the common path
    and the retry budget measures resilience rather than saturation.
    """
    return {
        "none": FaultSpec("none", ()),
        "bit-flip": FaultSpec(
            "bit-flip",
            (BitFlipSpec(rate=0.0015, max_corruptions=3, after_time=30),),
        ),
        "nan-poison": FaultSpec(
            "nan-poison",
            (
                PoisonSpec(
                    rate=0.0015, mode="nan", max_corruptions=3, after_time=30
                ),
            ),
        ),
        "inf-poison": FaultSpec(
            "inf-poison",
            (
                PoisonSpec(
                    rate=0.0015, mode="inf", max_corruptions=3, after_time=30
                ),
            ),
        ),
        "dup-write": FaultSpec(
            "dup-write",
            (
                DuplicateWriteSpec(
                    rate=0.003, max_corruptions=4, after_time=30
                ),
            ),
        ),
        "drop-write": FaultSpec(
            "drop-write",
            (DroppedWriteSpec(rate=0.003, max_corruptions=4, after_time=30),),
        ),
    }


@dataclass(frozen=True)
class HealWorkload:
    """The workload every resilience cell minimizes (mirrors the zoo)."""

    dim: int = 2
    num_threads: int = 4
    step_size: float = 0.05
    iterations: int = 200
    noise_sigma: float = 0.2
    x0_scale: float = 2.0
    adversary: str = "random"
    #: ``||x - x*||`` at or below which a cell counts as converged.
    convergence_radius: float = 0.5


@dataclass(frozen=True)
class HealGridConfig:
    """One resilience run: algorithms × plans × seeds.

    Plans are *names* into :func:`heal_plan_specs` (plain strings keep
    the config journal-fingerprintable)."""

    algorithms: Tuple[str, ...]
    plans: Tuple[str, ...]
    seeds: Tuple[int, ...]
    workload: HealWorkload = field(default_factory=HealWorkload)
    policy: HealPolicy = field(default_factory=HealPolicy)
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ConfigurationError("resilience grid needs >= 1 algorithm")
        if not self.plans:
            raise ConfigurationError("resilience grid needs >= 1 plan")
        if not self.seeds:
            raise ConfigurationError("resilience grid needs >= 1 seed")
        unknown = set(self.algorithms) - set(algorithm_names())
        if unknown:
            raise ConfigurationError(
                f"unknown algorithm(s): {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(algorithm_names())})"
            )
        unknown = set(self.plans) - set(heal_plan_specs())
        if unknown:
            raise ConfigurationError(
                f"unknown plan(s): {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(sorted(heal_plan_specs()))})"
            )


@dataclass(frozen=True)
class HealCellOutcome:
    """One (algorithm, plan, seed) cell — plain values only, so it
    crosses the process pool and serializes to JSON untouched."""

    algorithm: str
    plan: str
    seed: int
    #: ``(rule, firings)`` pairs, rule-sorted.
    detections: Tuple[Tuple[str, int], ...]
    rollbacks: int
    retries: int
    budget_spent: int
    degradations: Tuple[str, ...]
    recovery_latencies: Tuple[int, ...]
    health: str  # "healthy" | "degraded" | "abandoned"
    #: Detected, rolled back, and still finished healthy.
    recovered: bool
    corruptions: int
    crashes: int
    steps: int
    iterations: int
    distance: float
    converged: bool
    final_algorithm: str
    final_step_size: float


def _heal_worker(
    config: HealGridConfig, algorithm: str, plan: str, seed: int
) -> HealCellOutcome:
    """Run one resilience cell (module-level: picklable for the pool)."""
    workload = config.workload
    objective = IsotropicQuadratic(
        dim=workload.dim, noise=GaussianNoise(workload.noise_sigma)
    )
    result = run_with_healing(
        algorithm,
        objective,
        heal_plan_specs()[plan],
        adversary=workload.adversary,
        num_threads=workload.num_threads,
        step_size=workload.step_size,
        iterations=workload.iterations,
        x0=np.full(workload.dim, workload.x0_scale),
        seed=seed,
        policy=config.policy,
    )
    report = result.report
    distance = float(objective.distance_to_opt(result.x_final))
    return HealCellOutcome(
        algorithm=algorithm,
        plan=plan,
        seed=seed,
        detections=tuple(sorted(report.detections.items())),
        rollbacks=report.rollbacks,
        retries=report.retries,
        budget_spent=report.budget_spent,
        degradations=tuple(report.degradations),
        recovery_latencies=tuple(report.recovery_latencies),
        health=report.health,
        recovered=report.rollbacks > 0 and report.health == "healthy",
        corruptions=result.corruptions,
        crashes=result.crashes,
        steps=result.steps,
        iterations=result.iterations,
        distance=distance,
        converged=distance <= workload.convergence_radius,
        final_algorithm=report.final_algorithm,
        final_step_size=report.final_step_size,
    )


@dataclass(frozen=True)
class HealCellSummary:
    """One (algorithm, plan) grid row over its seed ensemble."""

    algorithm: str
    plan: str
    runs: int
    convergence_rate: float
    mean_distance: float
    detections: int
    rollbacks: int
    recovered: int
    degraded: int
    abandoned: int
    mean_recovery_latency: float


def summarize_heal(outcomes: List[HealCellOutcome]) -> List[HealCellSummary]:
    """Collapse per-seed outcomes into grid rows (grid order)."""
    by_cell: Dict[Tuple[str, str], List[HealCellOutcome]] = {}
    for outcome in outcomes:
        by_cell.setdefault((outcome.algorithm, outcome.plan), []).append(
            outcome
        )
    summaries = []
    for (algorithm, plan), cell in by_cell.items():
        latencies = [lat for o in cell for lat in o.recovery_latencies]
        summaries.append(
            HealCellSummary(
                algorithm=algorithm,
                plan=plan,
                runs=len(cell),
                convergence_rate=float(np.mean([o.converged for o in cell])),
                mean_distance=float(np.mean([o.distance for o in cell])),
                detections=sum(
                    count for o in cell for _rule, count in o.detections
                ),
                rollbacks=sum(o.rollbacks for o in cell),
                recovered=sum(o.recovered for o in cell),
                degraded=sum(o.health == "degraded" for o in cell),
                abandoned=sum(o.health == "abandoned" for o in cell),
                mean_recovery_latency=(
                    float(np.mean(latencies)) if latencies else 0.0
                ),
            )
        )
    return summaries


@dataclass
class HealGridReport:
    """Everything the resilience grid measured."""

    outcomes: List[HealCellOutcome]
    summaries: List[HealCellSummary]

    @property
    def recovered_cells(self) -> int:
        """Cells that detected corruption, rolled back and finished
        healthy — the detected→rolled-back→recovered count CI asserts."""
        return sum(o.recovered for o in self.outcomes)

    @property
    def none_abandoned(self) -> bool:
        return all(o.health != "abandoned" for o in self.outcomes)

    @property
    def all_converged(self) -> bool:
        return all(o.converged for o in self.outcomes)

    @property
    def passed(self) -> bool:
        return self.none_abandoned and self.all_converged

    def render(self) -> str:
        """ASCII grid report (the CLI artifact)."""
        table = Table(
            [
                "algorithm",
                "plan",
                "runs",
                "converged",
                "mean ||x-x*||",
                "detections",
                "rollbacks",
                "recovered",
                "degraded",
                "abandoned",
                "mean latency",
            ],
            title="Resilience grid: algorithms x corruption plans",
        )
        for s in self.summaries:
            table.add_row(
                [
                    s.algorithm,
                    s.plan,
                    s.runs,
                    f"{s.convergence_rate:.2f}",
                    f"{s.mean_distance:.4f}",
                    s.detections,
                    s.rollbacks,
                    s.recovered,
                    s.degraded,
                    s.abandoned,
                    f"{s.mean_recovery_latency:.1f}",
                ]
            )
        parts = [table.render()]
        for outcome in self.outcomes:
            if outcome.degradations:
                ladder = " -> ".join(outcome.degradations)
                parts.append(
                    f"DEGRADED {outcome.algorithm} x {outcome.plan} "
                    f"seed={outcome.seed}: {ladder} (health={outcome.health})"
                )
        parts.append(
            f"recovered cells (detected -> rolled back -> healthy): "
            f"{self.recovered_cells}"
        )
        parts.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(parts)

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, no timestamps): reruns with
        the same config produce identical bytes."""
        payload = {
            "summaries": [asdict(s) for s in self.summaries],
            "outcomes": [asdict(o) for o in self.outcomes],
            "recovered_cells": self.recovered_cells,
            "none_abandoned": self.none_abandoned,
            "all_converged": self.all_converged,
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, path: str, fmt: str = "json") -> None:
        """Atomically persist the report (``fmt`` = ``"json"``/``"txt"``)."""
        from repro.durable.atomic_io import atomic_write

        if fmt == "json":
            text = self.to_json()
        elif fmt == "txt":
            text = self.render() + "\n"
        else:
            raise ConfigurationError(f"unknown report format: {fmt!r}")
        atomic_write(path, text.encode("utf-8"))


def heal_fingerprint(config: HealGridConfig) -> str:
    """Stable fingerprint of everything that determines grid results
    (``jobs`` excluded — parallelism never changes results)."""
    from repro.durable.journal import config_fingerprint

    payload = asdict(config)
    payload.pop("jobs", None)
    return config_fingerprint(payload)


def outcome_to_payload(outcome: HealCellOutcome) -> Dict[str, Any]:
    """JSON-safe journal payload for one resilience cell."""
    return asdict(outcome)


def outcome_from_payload(payload: Dict[str, Any]) -> HealCellOutcome:
    """Inverse of :func:`outcome_to_payload` — exact reconstruction, so
    journaled and freshly computed outcomes mix byte-identically."""
    data = dict(payload)
    data["detections"] = tuple(
        (str(rule), int(count)) for rule, count in data["detections"]
    )
    data["degradations"] = tuple(data["degradations"])
    data["recovery_latencies"] = tuple(
        int(v) for v in data["recovery_latencies"]
    )
    return HealCellOutcome(**data)


def _cell_namespace(algorithm: str, plan: str) -> str:
    return f"{algorithm}/{plan}"


def report_from_outcomes(outcomes: List[HealCellOutcome]) -> HealGridReport:
    """Aggregate cell outcomes into a report (grid order preserved)."""
    return HealGridReport(outcomes=outcomes, summaries=summarize_heal(outcomes))


def partial_heal_report(config: HealGridConfig, journal: Any) -> HealGridReport:
    """Report over only the cells the journal has — the artifact the CLI
    flushes when a run is interrupted.  Grid-ordered, so the final
    resumed report extends it deterministically."""
    outcomes: List[HealCellOutcome] = []
    for algorithm in config.algorithms:
        for plan in config.plans:
            done = journal.completed(_cell_namespace(algorithm, plan))
            for seed in config.seeds:
                if seed in done:
                    outcomes.append(outcome_from_payload(done[seed]))
    return report_from_outcomes(outcomes)


def heal_metrics_lines(
    config: HealGridConfig, outcomes: List[HealCellOutcome]
) -> List[Dict[str, Any]]:
    """Snapshot-file lines for ``repro heal --metrics``: one
    ``kind="cell"`` line per outcome (grid order) plus one
    ``kind="aggregate"`` roll-up.  Purely a function of the outcomes,
    hence deterministic and identical across ``--jobs``."""
    lines: List[Dict[str, Any]] = []
    detections: Dict[str, int] = {}
    total_rollbacks = 0
    latencies: List[int] = []
    for outcome in outcomes:
        for rule, count in outcome.detections:
            detections[rule] = detections.get(rule, 0) + count
        total_rollbacks += outcome.rollbacks
        latencies.extend(outcome.recovery_latencies)
        lines.append(
            {
                "kind": "cell",
                "algorithm": outcome.algorithm,
                "plan": outcome.plan,
                "seed": outcome.seed,
                "health": outcome.health,
                "recovered": outcome.recovered,
                "rollbacks": outcome.rollbacks,
                "detections": dict(outcome.detections),
                "degradations": list(outcome.degradations),
                "recovery_latencies": list(outcome.recovery_latencies),
            }
        )
    lines.append(
        {
            "kind": "aggregate",
            "detections": {r: detections[r] for r in sorted(detections)},
            "rollbacks": total_rollbacks,
            "recovery_latency_mean": (
                float(np.mean(latencies)) if latencies else 0.0
            ),
            "recovery_latency_max": max(latencies) if latencies else 0,
        }
    )
    return lines


def run_heal_grid(
    config: HealGridConfig,
    journal: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    watchdog_policy: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> HealGridReport:
    """Execute the full algorithm × plan × seed resilience grid.

    Each grid row's seed ensemble goes through :func:`run_ensemble`
    (durable resume at cell granularity, graceful interrupts,
    ``--jobs``-invariant bytes).  Heal counters are published to
    ``metrics`` in the parent from the deterministic outcome fields —
    never from inside pooled workers — so metric snapshots are identical
    across ``--jobs`` too.
    """
    from repro.durable.watchdog import EnsembleWatchdog
    from repro.heal.rollback import LATENCY_BUCKETS
    from repro.obs.registry import live_registry
    from repro.obs.spans import trace_span

    registry = live_registry(metrics)

    def note_cell(seed: int, outcome: HealCellOutcome) -> None:
        if registry is not None:
            registry.counter(
                "repro_heal_cells_total", "resilience cells finished"
            ).inc()
            for _rule, count in outcome.detections:
                registry.counter(
                    "repro_heal_detections_total", "health detector firings"
                ).inc(count)
            registry.counter(
                "repro_heal_rollbacks_total", "checkpoint rollbacks performed"
            ).inc(outcome.rollbacks)
            registry.counter(
                "repro_heal_degradations_total", "ladder degradations taken"
            ).inc(len(outcome.degradations))
            histogram = registry.histogram(
                "repro_heal_recovery_latency_steps",
                buckets=LATENCY_BUCKETS,
                help="logical steps between restored cut and detection",
            )
            for latency in outcome.recovery_latencies:
                histogram.observe(latency)
        if progress is not None:
            progress(seed, outcome)

    outcomes: List[HealCellOutcome] = []
    with EnsemblePool(config.jobs, len(config.seeds)) as pool:
        for algorithm in config.algorithms:
            for plan in config.plans:
                watchdog = (
                    EnsembleWatchdog(watchdog_policy, metrics=metrics)
                    if watchdog_policy is not None
                    else None
                )
                with trace_span(
                    "heal.cell",
                    algorithm=algorithm,
                    plan=plan,
                    seeds=len(config.seeds),
                ):
                    outcomes.extend(
                        run_ensemble(
                            functools.partial(
                                _heal_worker, config, algorithm, plan
                            ),
                            config.seeds,
                            jobs=config.jobs,
                            journal=journal,
                            namespace=_cell_namespace(algorithm, plan),
                            encode=outcome_to_payload,
                            decode=outcome_from_payload,
                            watchdog=watchdog,
                            shutdown=shutdown,
                            metrics=metrics,
                            progress=note_cell,
                            pool=pool,
                        )
                    )
    return report_from_outcomes(outcomes)


# ----------------------------------------------------------------------
# The E14 experiment wrapper
# ----------------------------------------------------------------------
@dataclass
class E14Config:
    """Parameters of the E14 resilience grid."""

    algorithms: List[str] = field(
        default_factory=lambda: list(HEAL_ALGORITHMS)
    )
    plans: List[str] = field(
        default_factory=lambda: ["none", "bit-flip", "nan-poison", "dup-write"]
    )
    num_threads: int = 4
    iterations: int = 200
    step_size: float = 0.05
    num_seeds: int = 2
    base_seed: int = 8000
    jobs: int = 1

    @classmethod
    def quick(cls) -> "E14Config":
        return cls()

    @classmethod
    def full(cls) -> "E14Config":
        return cls(plans=list(heal_plan_specs()), num_seeds=4, iterations=400)


def to_heal_config(config: E14Config) -> HealGridConfig:
    """The engine config an :class:`E14Config` denotes."""
    return HealGridConfig(
        algorithms=tuple(config.algorithms),
        plans=tuple(config.plans),
        seeds=tuple(
            range(config.base_seed, config.base_seed + config.num_seeds)
        ),
        workload=HealWorkload(
            num_threads=config.num_threads,
            iterations=config.iterations,
            step_size=config.step_size,
        ),
        jobs=config.jobs,
    )


def run(config: E14Config) -> ExperimentResult:
    """Execute E14: the resilience grid."""
    report = run_heal_grid(to_heal_config(config))
    xs = list(range(len(config.plans)))
    series: Dict[str, List[float]] = {}
    for summary in report.summaries:
        series.setdefault(summary.algorithm, []).append(summary.mean_distance)
    table = Table(
        ["algorithm", "plan", "converged", "rollbacks", "recovered", "health"],
        title=(
            f"E14: resilience grid (n={config.num_threads}, "
            f"T={config.iterations}, {config.num_seeds} seeds/cell)"
        ),
    )
    for s in report.summaries:
        health = (
            "abandoned"
            if s.abandoned
            else ("degraded" if s.degraded else "healthy")
        )
        table.add_row(
            [
                s.algorithm,
                s.plan,
                f"{s.convergence_rate:.2f}",
                s.rollbacks,
                s.recovered,
                health,
            ]
        )
    return ExperimentResult(
        experiment_id="E14",
        title="the resilience grid — silent data corruption detected, "
        "rolled back and survived",
        table=table,
        xs=[float(x) for x in xs],
        series=series,
        passed=report.passed,
        notes=(
            "acceptance: no cell abandoned and every cell converged; "
            f"{report.recovered_cells} cell(s) detected corruption, rolled "
            "back and finished healthy"
        ),
    )
