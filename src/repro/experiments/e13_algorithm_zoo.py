"""E13 — the algorithm zoo: every variant under every adversary.

The unification payoff of the :class:`~repro.core.algorithm.Algorithm`
seam: grid every registered asynchronous-SGD variant (Algorithm 1,
Algorithm 2, Hogwild, locked, leashed, momentum, staleness-aware)
against every named adversary (round-robin, random, bounded-delay, the
Theorem-5.1 stale-gradient attack, the contention maximizer) over a seed
ensemble, and measure in one report what previously took five one-off
experiments:

* convergence — final ``||x − x*||`` and a downsampled distance curve
  per cell;
* contention — τ_max, τ_avg and the τ histogram from
  :func:`repro.obs.paper.paper_metrics`;
* correctness — the race/staleness sanitizer over the shared-memory
  operation log, plus the paper's lemma certificates (6.1, 6.2, 6.4)
  wherever the variant declares them structurally applicable, and an
  explicit ``n/a`` where it does not (locked's spinlock and leashed's
  CAS retry loops break the bounded-iteration premise of 6.2/6.4).

Cells run through :func:`repro.experiments.ensemble.run_ensemble`, so
the grid parallelizes across processes (``--jobs``) and journals for
kill/resume with byte-identical reports either way — the properties the
CI zoo job pins.

Acceptance: every applicable lemma certificate holds in every cell and
the sanitizer is clean everywhere (convergence under the attack
schedules is reported, not gated — slowing convergence is exactly what
the adversaries are for).
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.algorithm import (
    LEMMAS,
    algorithm_names,
    get_algorithm,
    run_algorithm,
)
from repro.errors import ConfigurationError
from repro.experiments.ensemble import EnsemblePool, run_ensemble
from repro.experiments.runner import ExperimentResult
from repro.metrics.report import Table
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.registry import build_scheduler, scheduler_names

#: The default adversary panel of the zoo grid (a subset of
#: :func:`repro.sched.registry.scheduler_names` — the interesting ones).
ZOO_ADVERSARIES: Tuple[str, ...] = (
    "round-robin",
    "random",
    "bounded-delay",
    "stale-attack",
    "contention-max",
)


@dataclass(frozen=True)
class ZooWorkload:
    """The workload every zoo cell minimizes.

    A small noisy isotropic quadratic: cheap enough to grid 7×5×seeds,
    contended enough (few coordinates, several threads) that the
    adversaries have something to bite on.
    """

    dim: int = 2
    num_threads: int = 4
    step_size: float = 0.05
    iterations: int = 200
    noise_sigma: float = 0.2
    x0_scale: float = 2.0
    #: ``||x - x*||`` at or below which a cell counts as converged.
    convergence_radius: float = 0.5
    #: Points kept of each cell's distance curve (downsampled).
    curve_points: int = 16


@dataclass(frozen=True)
class ZooConfig:
    """One zoo run: algorithms x adversaries x seeds."""

    algorithms: Tuple[str, ...]
    adversaries: Tuple[str, ...]
    seeds: Tuple[int, ...]
    workload: ZooWorkload = field(default_factory=ZooWorkload)
    #: Attach the race/staleness sanitizer to every cell (turns the
    #: shared-memory op log on; part of the journal fingerprint).
    sanitize: bool = True
    jobs: int = 1
    #: Ship each cell's full paper-metrics snapshot to the ``--metrics``
    #: file.  Like the chaos campaign's flag it never changes report
    #: bytes, but it is part of the fingerprint (workers compute more).
    collect_obs: bool = False

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ConfigurationError("zoo needs at least one algorithm")
        if not self.adversaries:
            raise ConfigurationError("zoo needs at least one adversary")
        if not self.seeds:
            raise ConfigurationError("zoo needs at least one seed")
        unknown = set(self.algorithms) - set(algorithm_names())
        if unknown:
            raise ConfigurationError(
                f"unknown algorithm(s): {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(algorithm_names())})"
            )
        unknown = set(self.adversaries) - set(scheduler_names())
        if unknown:
            raise ConfigurationError(
                f"unknown adversary(s): {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(scheduler_names())})"
            )


@dataclass(frozen=True)
class ZooCellOutcome:
    """One (algorithm, adversary, seed) cell — plain values only, so it
    crosses the process pool and serializes to JSON untouched."""

    algorithm: str
    adversary: str
    seed: int
    iterations: int
    steps: int
    distance: float
    converged: bool
    tau_max: int
    tau_avg: float
    #: Cumulative ``(bucket, count)`` pairs of the per-iteration delay
    #: histogram (last bucket is ``"+Inf"``).
    tau_histogram: Tuple[Tuple[Any, int], ...]
    #: ``(lemma, status)`` with status ``"holds"``/``"violated"`` for
    #: certificates the algorithm declares applicable, ``"n/a"`` else.
    certificates: Tuple[Tuple[str, str], ...]
    sanitizer_findings: Tuple[str, ...]
    #: Variant-specific counters summed over threads (``spin_steps``,
    #: ``cas_failures``, ...), name-sorted for determinism.
    extras: Tuple[Tuple[str, float], ...]
    #: Downsampled ``||x_t - x*||`` curve (first and last point exact).
    curve: Tuple[float, ...]
    #: Full paper-metrics snapshot (``collect_obs`` runs only); never
    #: serialized into the report, so bytes match either way.
    obs: Optional[Dict[str, Any]] = None


def _downsample(values: np.ndarray, points: int) -> Tuple[float, ...]:
    """At most ``points`` evenly spaced samples, endpoints included."""
    if values.size == 0:
        return ()
    if values.size <= points:
        return tuple(float(v) for v in values)
    indices = np.linspace(0, values.size - 1, points).round().astype(int)
    return tuple(float(values[i]) for i in indices)


def _zoo_worker(
    config: ZooConfig, algorithm_name: str, adversary: str, seed: int
) -> ZooCellOutcome:
    """Run one zoo cell (module-level: picklable for the pool)."""
    from repro.obs.paper import paper_metrics

    workload = config.workload
    objective = IsotropicQuadratic(
        dim=workload.dim, noise=GaussianNoise(workload.noise_sigma)
    )
    algorithm = get_algorithm(algorithm_name)
    sanitizer = None
    analyzers: Tuple[Any, ...] = ()
    if config.sanitize:
        from repro.analysis.sanitizer import RaceStalenessSanitizer

        sanitizer = RaceStalenessSanitizer()
        analyzers = (sanitizer,)
    result = run_algorithm(
        algorithm,
        objective,
        build_scheduler(adversary, seed=seed),
        num_threads=workload.num_threads,
        step_size=workload.step_size,
        iterations=workload.iterations,
        x0=np.full(workload.dim, workload.x0_scale),
        seed=seed,
        analyzers=analyzers,
    )
    metrics = paper_metrics(result.records, num_threads=workload.num_threads)
    applicable = algorithm.lemma_applicability()
    holds = {
        "6.1": int(metrics["lemma_6_1_violations"]) == 0,
        "6.2": bool(metrics["lemma_6_2_holds"]),
        "6.4": bool(metrics["lemma_6_4_holds"]),
    }
    certificates = tuple(
        (
            lemma,
            ("holds" if holds[lemma] else "violated")
            if applicable[lemma]
            else "n/a",
        )
        for lemma in LEMMAS
    )
    distance = float(objective.distance_to_opt(result.x_final))
    extras = getattr(result, "extras", {})
    return ZooCellOutcome(
        algorithm=algorithm_name,
        adversary=adversary,
        seed=seed,
        iterations=len(result.records),
        steps=result.sim_steps,
        distance=distance,
        converged=distance <= workload.convergence_radius,
        tau_max=int(metrics["tau_max"]),
        tau_avg=float(metrics["tau_avg"]),
        tau_histogram=tuple(
            (bucket, int(count)) for bucket, count in metrics["tau_histogram"]
        ),
        certificates=certificates,
        sanitizer_findings=(
            tuple(str(f) for f in sanitizer.findings) if sanitizer else ()
        ),
        extras=tuple(sorted((k, float(v)) for k, v in extras.items())),
        curve=_downsample(result.distances, workload.curve_points),
        obs=metrics if config.collect_obs else None,
    )


@dataclass(frozen=True)
class ZooCellSummary:
    """One (algorithm, adversary) grid row over its seed ensemble."""

    algorithm: str
    adversary: str
    runs: int
    convergence_rate: float
    mean_distance: float
    max_tau_max: int
    mean_tau_avg: float
    mean_steps: float
    #: ``(lemma, status)`` aggregated over seeds: ``"violated"`` if any
    #: seed violated, else the per-seed status (``"holds"``/``"n/a"``).
    certificates: Tuple[Tuple[str, str], ...]
    sanitizer_findings: int


def summarize_zoo(outcomes: List[ZooCellOutcome]) -> List[ZooCellSummary]:
    """Collapse per-seed outcomes into grid rows (grid order)."""
    by_cell: Dict[Tuple[str, str], List[ZooCellOutcome]] = {}
    for outcome in outcomes:
        by_cell.setdefault((outcome.algorithm, outcome.adversary), []).append(
            outcome
        )
    summaries = []
    for (algorithm, adversary), cell in by_cell.items():
        certificates = []
        for index, lemma in enumerate(LEMMAS):
            statuses = {o.certificates[index][1] for o in cell}
            status = "violated" if "violated" in statuses else statuses.pop()
            certificates.append((lemma, status))
        summaries.append(
            ZooCellSummary(
                algorithm=algorithm,
                adversary=adversary,
                runs=len(cell),
                convergence_rate=float(np.mean([o.converged for o in cell])),
                mean_distance=float(np.mean([o.distance for o in cell])),
                max_tau_max=max(o.tau_max for o in cell),
                mean_tau_avg=float(np.mean([o.tau_avg for o in cell])),
                mean_steps=float(np.mean([o.steps for o in cell])),
                certificates=tuple(certificates),
                sanitizer_findings=sum(
                    len(o.sanitizer_findings) for o in cell
                ),
            )
        )
    return summaries


@dataclass
class ZooReport:
    """Everything the zoo grid measured, renderable and serializable."""

    outcomes: List[ZooCellOutcome]
    summaries: List[ZooCellSummary]

    @property
    def certificates_ok(self) -> bool:
        """No applicable lemma certificate violated anywhere."""
        return all(
            status != "violated"
            for outcome in self.outcomes
            for _lemma, status in outcome.certificates
        )

    @property
    def sanitizer_clean(self) -> bool:
        """The race/staleness sanitizer flagged nothing anywhere."""
        return all(not o.sanitizer_findings for o in self.outcomes)

    @property
    def passed(self) -> bool:
        return self.certificates_ok and self.sanitizer_clean

    def render(self) -> str:
        """ASCII grid report (the CLI artifact)."""
        table = Table(
            [
                "algorithm",
                "adversary",
                "runs",
                "converged",
                "mean ||x-x*||",
                "tau_max",
                "tau_avg",
                "mean steps",
                *[f"lemma {lemma}" for lemma in LEMMAS],
                "sanitizer",
            ],
            title="Algorithm zoo: variants x adversaries",
        )
        for s in self.summaries:
            table.add_row(
                [
                    s.algorithm,
                    s.adversary,
                    s.runs,
                    f"{s.convergence_rate:.2f}",
                    f"{s.mean_distance:.4f}",
                    s.max_tau_max,
                    f"{s.mean_tau_avg:.2f}",
                    f"{s.mean_steps:.0f}",
                    *[status for _lemma, status in s.certificates],
                    s.sanitizer_findings or "clean",
                ]
            )
        parts = [table.render()]
        for outcome in self.outcomes:
            for finding in outcome.sanitizer_findings:
                parts.append(
                    f"FINDING {outcome.algorithm} x {outcome.adversary} "
                    f"seed={outcome.seed}: {finding}"
                )
            for lemma, status in outcome.certificates:
                if status == "violated":
                    parts.append(
                        f"VIOLATED lemma {lemma}: {outcome.algorithm} x "
                        f"{outcome.adversary} seed={outcome.seed}"
                    )
        parts.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(parts)

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, no timestamps): reruns with
        the same config produce identical bytes."""
        outcomes = []
        for o in self.outcomes:
            row = asdict(o)
            # Observability metrics flow to the snapshot file, never the
            # report: bytes stay identical with and without collect_obs.
            row.pop("obs", None)
            outcomes.append(row)
        payload = {
            "summaries": [asdict(s) for s in self.summaries],
            "outcomes": outcomes,
            "certificates_ok": self.certificates_ok,
            "sanitizer_clean": self.sanitizer_clean,
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


def zoo_fingerprint(config: ZooConfig) -> str:
    """Stable fingerprint of everything that determines zoo results.

    ``jobs`` is deliberately excluded: parallelism changes wall-clock
    time, never results, so a journal written under ``--jobs 4`` must
    resume cleanly under ``--jobs 1`` (and vice versa).
    """
    from repro.durable.journal import config_fingerprint

    payload = asdict(config)
    payload.pop("jobs", None)
    return config_fingerprint(payload)


def outcome_to_payload(outcome: ZooCellOutcome) -> Dict[str, Any]:
    """JSON-safe journal payload for one zoo cell."""
    return asdict(outcome)


def outcome_from_payload(payload: Dict[str, Any]) -> ZooCellOutcome:
    """Inverse of :func:`outcome_to_payload` — exact reconstruction, so
    journaled and freshly computed outcomes mix byte-identically."""
    data = dict(payload)
    data["tau_histogram"] = tuple(
        (bucket, int(count)) for bucket, count in data["tau_histogram"]
    )
    data["certificates"] = tuple(
        (lemma, status) for lemma, status in data["certificates"]
    )
    data["sanitizer_findings"] = tuple(data["sanitizer_findings"])
    data["extras"] = tuple((k, float(v)) for k, v in data["extras"])
    data["curve"] = tuple(float(v) for v in data["curve"])
    data.setdefault("obs", None)
    return ZooCellOutcome(**data)


def _cell_namespace(algorithm: str, adversary: str) -> str:
    return f"{algorithm}/{adversary}"


def report_from_outcomes(outcomes: List[ZooCellOutcome]) -> ZooReport:
    """Aggregate cell outcomes into a report (grid order preserved)."""
    return ZooReport(outcomes=outcomes, summaries=summarize_zoo(outcomes))


def partial_zoo_report(config: ZooConfig, journal: Any) -> ZooReport:
    """Report over only the cells the journal has — the artifact the CLI
    flushes when a zoo run is interrupted.  Grid-ordered, so the final
    resumed report extends it deterministically."""
    outcomes: List[ZooCellOutcome] = []
    for algorithm in config.algorithms:
        for adversary in config.adversaries:
            done = journal.completed(_cell_namespace(algorithm, adversary))
            for seed in config.seeds:
                if seed in done:
                    outcomes.append(outcome_from_payload(done[seed]))
    return report_from_outcomes(outcomes)


def zoo_metrics_lines(
    config: ZooConfig, outcomes: List[ZooCellOutcome]
) -> List[Dict[str, Any]]:
    """Snapshot-file lines for a ``collect_obs`` zoo run: one
    ``kind="cell"`` line per outcome carrying metrics (grid order) plus
    one ``kind="aggregate"`` roll-up.  Deterministic."""
    from repro.obs.paper import merge_paper_metrics

    lines: List[Dict[str, Any]] = []
    cells = []
    for outcome in outcomes:
        if outcome.obs is None:
            continue
        cells.append(outcome.obs)
        lines.append(
            {
                "kind": "cell",
                "algorithm": outcome.algorithm,
                "adversary": outcome.adversary,
                "seed": outcome.seed,
                "converged": outcome.converged,
                "steps": outcome.steps,
                "metrics": outcome.obs,
            }
        )
    lines.append({"kind": "aggregate", "metrics": merge_paper_metrics(cells)})
    return lines


def run_zoo(
    config: ZooConfig,
    journal: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    watchdog_policy: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> ZooReport:
    """Execute the full algorithm x adversary x seed grid.

    Each grid row's seed ensemble goes through :func:`run_ensemble`, so
    ``config.jobs`` parallelizes cells across processes with results
    byte-identical to a serial run.  ``journal``/``shutdown``/
    ``watchdog_policy``/``metrics``/``progress`` behave exactly as in
    :func:`repro.faults.campaign.run_campaign` — durable resume at cell
    granularity, graceful interrupts, live telemetry; none of it changes
    results or report bytes.
    """
    from repro.durable.watchdog import EnsembleWatchdog
    from repro.obs.paper import publish_paper_metrics
    from repro.obs.registry import live_registry
    from repro.obs.spans import trace_span

    registry = live_registry(metrics)

    def note_cell(seed: int, outcome: ZooCellOutcome) -> None:
        if registry is not None and outcome.obs is not None:
            publish_paper_metrics(registry, outcome.obs)
        if registry is not None:
            registry.counter(
                "repro_zoo_cells_total", "zoo cells finished"
            ).inc()
        if progress is not None:
            progress(seed, outcome)

    outcomes: List[ZooCellOutcome] = []
    with EnsemblePool(config.jobs, len(config.seeds)) as pool:
        for algorithm in config.algorithms:
            for adversary in config.adversaries:
                watchdog = (
                    EnsembleWatchdog(watchdog_policy, metrics=metrics)
                    if watchdog_policy is not None
                    else None
                )
                with trace_span(
                    "zoo.cell",
                    algorithm=algorithm,
                    adversary=adversary,
                    seeds=len(config.seeds),
                ):
                    outcomes.extend(
                        run_ensemble(
                            functools.partial(
                                _zoo_worker, config, algorithm, adversary
                            ),
                            config.seeds,
                            jobs=config.jobs,
                            journal=journal,
                            namespace=_cell_namespace(algorithm, adversary),
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
# The E13 experiment wrapper
# ----------------------------------------------------------------------
@dataclass
class E13Config:
    """Parameters of the E13 zoo grid."""

    algorithms: List[str] = field(
        default_factory=lambda: list(algorithm_names())
    )
    adversaries: List[str] = field(default_factory=lambda: list(ZOO_ADVERSARIES))
    num_threads: int = 4
    iterations: int = 150
    step_size: float = 0.05
    num_seeds: int = 2
    base_seed: int = 7000
    jobs: int = 1

    @classmethod
    def quick(cls) -> "E13Config":
        return cls()

    @classmethod
    def full(cls) -> "E13Config":
        return cls(num_seeds=5, iterations=400)


def to_zoo_config(config: E13Config) -> ZooConfig:
    """The engine config an :class:`E13Config` denotes."""
    return ZooConfig(
        algorithms=tuple(config.algorithms),
        adversaries=tuple(config.adversaries),
        seeds=tuple(
            range(config.base_seed, config.base_seed + config.num_seeds)
        ),
        workload=ZooWorkload(
            num_threads=config.num_threads,
            iterations=config.iterations,
            step_size=config.step_size,
        ),
        jobs=config.jobs,
    )


def run(config: E13Config) -> ExperimentResult:
    """Execute E13: the full algorithm x adversary grid."""
    report = run_zoo(to_zoo_config(config))
    # The figure: per algorithm, mean convergence rate over adversaries
    # (xs index the adversary panel).
    xs = list(range(len(config.adversaries)))
    series: Dict[str, List[float]] = {}
    for summary in report.summaries:
        series.setdefault(summary.algorithm, []).append(
            summary.mean_distance
        )
    table = Table(
        ["algorithm", "adversary", "converged", "mean ||x-x*||", "tau_max"],
        title=(
            f"E13: algorithm zoo (n={config.num_threads}, "
            f"T={config.iterations}, {config.num_seeds} seeds/cell)"
        ),
    )
    for s in report.summaries:
        table.add_row(
            [
                s.algorithm,
                s.adversary,
                f"{s.convergence_rate:.2f}",
                f"{s.mean_distance:.4f}",
                s.max_tau_max,
            ]
        )
    return ExperimentResult(
        experiment_id="E13",
        title="the algorithm zoo — every variant under every adversary, "
        "certified where the lemmas apply",
        table=table,
        xs=[float(x) for x in xs],
        series=series,
        passed=report.passed,
        notes=(
            "acceptance: every applicable lemma certificate holds and the "
            "race/staleness sanitizer is clean in every cell; adversaries "
            "degrade convergence by design, so convergence is reported, "
            "not gated"
        ),
    )
