"""E14 — the resilience grid: every variant's survival envelope.

E13 measures how every algorithm variant *converges* under adversarial
scheduling; E14 measures whether it *survives* silent data corruption.
The grid is algorithm × corruption plan × seed: each cell runs the
variant under a seeded value-corruption fault plan (bit flips, NaN/Inf
poison, duplicated/dropped writes — :func:`heal_plan_specs`) with the
self-healing ladder of :func:`repro.heal.rollback.run_with_healing`
switched on, and records
what the ladder did: detector firings per rule, rollbacks, retries,
degradations taken, recovery latencies, final health and final
``||x − x*||``.

The grid is the registered ``heal`` campaign (:class:`HealCampaign`, see
:mod:`repro.experiments.grid`), so it parallelizes across processes
(``--jobs``) and journals for kill/resume with byte-identical reports
either way — the properties the CI heal job pins.

Acceptance: no cell is abandoned and every cell converges — corruption
is *survived*, not merely observed.  The report additionally counts
``recovered_cells`` (detected → rolled back → finished healthy), the
number CI asserts to be ≥ 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.algorithm import algorithm_names
from repro.errors import ConfigurationError
from repro.experiments.grid import (
    Campaign,
    Cell,
    GridReport,
    Param,
    check_workload,
    gate,
    get_campaign,
    grid_seeds,
    register_campaign,
)
from repro.experiments.runner import ExperimentResult
from repro.faults.spec import (
    BitFlipSpec,
    DroppedWriteSpec,
    DuplicateWriteSpec,
    FaultSpec,
    PoisonSpec,
)
from repro.heal.rollback import HealPolicy, run_with_healing
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.registry import scheduler_names

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

    def __post_init__(self) -> None:
        check_workload(self.num_threads, self.iterations)
        if self.adversary not in scheduler_names():
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r} "
                f"(choose from {', '.join(scheduler_names())})"
            )


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

    @classmethod
    def quick(cls) -> "HealGridConfig":
        """``repro run E14 --scale quick``."""
        return get_campaign("heal").preset()

    @classmethod
    def full(cls) -> "HealGridConfig":
        """``repro run E14 --scale full``."""
        return get_campaign("heal").preset(
            plans=tuple(heal_plan_specs()), seeds=4, iterations=400
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
class HealGridReport(GridReport):
    """Everything the resilience grid measured."""

    summaries: List[HealCellSummary]

    title = "Resilience grid: algorithms x corruption plans"
    columns = (
        ("algorithm", "algorithm"),
        ("plan", "plan"),
        ("runs", "runs"),
        ("converged", "convergence_rate:.2f"),
        ("mean ||x-x*||", "mean_distance:.4f"),
        ("detections", "detections"),
        ("rollbacks", "rollbacks"),
        ("recovered", "recovered"),
        ("degraded", "degraded"),
        ("abandoned", "abandoned"),
        ("mean latency", "mean_recovery_latency:.1f"),
    )
    extras = ("summaries", "recovered_cells")

    @property
    def recovered_cells(self) -> int:
        """Cells that detected corruption, rolled back and finished
        healthy — the detected→rolled-back→recovered count CI asserts."""
        return sum(o.recovered for o in self.outcomes)

    @gate
    def none_abandoned(self) -> bool:
        return all(o.health != "abandoned" for o in self.outcomes)

    @gate
    def all_converged(self) -> bool:
        return all(o.converged for o in self.outcomes)

    def details(self) -> List[str]:
        lines = [
            f"DEGRADED {o.algorithm} x {o.plan} seed={o.seed}: "
            f"{' -> '.join(o.degradations)} (health={o.health})"
            for o in self.outcomes
            if o.degradations
        ]
        lines.append(
            f"recovered cells (detected -> rolled back -> healthy): "
            f"{self.recovered_cells}"
        )
        return lines


@register_campaign
class HealCampaign(Campaign):
    """``repro heal``: algorithms x corruption plans x seeds, one
    ``heal.cell`` span per (algorithm, plan) row.

    Heal counters are published from the deterministic outcome fields in
    the parent — never from inside pooled workers — so metric snapshots
    are identical across ``--jobs`` too.
    """

    name = "heal"
    help = (
        "run the resilience grid: algorithms under silent-data-corruption "
        "plans with the detect/rollback/retry ladder on"
    )
    report_name = "heal_report"
    params = (
        Param(
            "algorithms", ("epoch-sgd",), algorithm_names,
            "comma-separated registry names, or 'default' "
            "(epoch-sgd, hogwild, locked)",
            cli_default="default", aliases={"default": lambda: HEAL_ALGORITHMS},
        ),
        Param(
            "plans", ("none", "nan-poison"), heal_plan_specs,
            "comma-separated corruption plan names "
            "(none, bit-flip, nan-poison, inf-poison, dup-write, "
            "drop-write), or 'all'",
            cli_default="none,bit-flip,nan-poison,dup-write",
            aliases={"all": lambda: sorted(heal_plan_specs())},
        ),
        Param("threads", 4, int, "SGD threads per run (default 4)"),
        Param(
            "iterations", 150, int,
            "global iteration budget per run (default 200)",
            cli_default=200, metavar="T",
        ),
        Param(
            "adversary", "random", str,
            "scheduler the grid runs under (default random)",
        ),
        Param(
            "retry_budget", 8, int,
            "rollback budget units per ladder level (default 8)",
        ),
        Param(
            "check_interval", 64, int,
            "detector/checkpoint chunk size in logical steps (default 64)",
            metavar="STEPS",
        ),
    )
    cli_seeds = (2, 8000)
    serve_seeds = (1, 8000)
    seeds_per = "(algorithm, plan) cell"
    cells_metric = ("repro_heal_cells_total", "resilience cells finished")
    metrics_help = (
        "write a deterministic per-cell heal snapshot JSONL here "
        "(detections, rollbacks, degradations, recovery latencies; "
        "inspect with 'repro obs')"
    )
    outcome_type = HealCellOutcome

    def build(self, params, jobs=1, collect_obs=False):
        return HealGridConfig(
            algorithms=tuple(params["algorithms"]),
            plans=tuple(params["plans"]),
            seeds=grid_seeds(params),
            workload=HealWorkload(
                num_threads=params["threads"],
                iterations=params["iterations"],
                adversary=params["adversary"],
            ),
            policy=HealPolicy(
                check_interval=params["check_interval"],
                retry_budget=params["retry_budget"],
            ),
            jobs=jobs,
        )

    def cells(self, config):
        for algorithm in config.algorithms:
            for plan in config.plans:
                yield Cell(
                    f"{algorithm}/{plan}",
                    functools.partial(_heal_worker, config, algorithm, plan),
                    (algorithm, plan),
                )

    def cell_span(self, config, cell):
        from repro.obs.causal import trace_span

        algorithm, plan = cell.key
        return trace_span(
            "heal.cell", algorithm=algorithm, plan=plan, seeds=len(config.seeds)
        )

    def report(self, config, outcomes):
        return HealGridReport(outcomes=outcomes, summaries=summarize_heal(outcomes))

    def telemetry(self, registry, outcome):
        from repro.heal.rollback import LATENCY_BUCKETS

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

    def snapshot_lines(self, report):
        """One ``kind="cell"`` line per outcome (grid order) plus one
        ``kind="aggregate"`` roll-up."""
        lines: List[Dict[str, Any]] = []
        detections: Dict[str, int] = {}
        total_rollbacks = 0
        latencies: List[int] = []
        for outcome in report.outcomes:
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


# ----------------------------------------------------------------------
# The E14 experiment wrapper
# ----------------------------------------------------------------------
def _row_health(summary: HealCellSummary) -> str:
    """A grid row's worst seed health."""
    if summary.abandoned:
        return "abandoned"
    return "degraded" if summary.degraded else "healthy"


def run(config: HealGridConfig) -> ExperimentResult:
    """Execute E14: the resilience grid."""
    report = get_campaign("heal").run(config)
    xs = list(range(len(config.plans)))
    series: Dict[str, List[float]] = {}
    for summary in report.summaries:
        series.setdefault(summary.algorithm, []).append(summary.mean_distance)
    columns = dict(HealGridReport.columns)
    picked = ("algorithm", "plan", "converged", "rollbacks", "recovered")
    table = report.table(
        [(header, columns[header]) for header in picked]
        + [("health", _row_health)],
        title=(
            f"E14: resilience grid (n={config.workload.num_threads}, "
            f"T={config.workload.iterations}, {len(config.seeds)} seeds/cell)"
        ),
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
