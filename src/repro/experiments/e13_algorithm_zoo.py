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

The grid is the registered ``zoo`` campaign (:class:`ZooCampaign`, see
:mod:`repro.experiments.grid`), so it parallelizes across processes
(``--jobs``) and journals for kill/resume with byte-identical reports
either way — the properties the CI zoo job pins.

Acceptance: every applicable lemma certificate holds in every cell and
the sanitizer is clean everywhere (convergence under the attack
schedules is reported, not gated — slowing convergence is exactly what
the adversaries are for).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.algorithm import (
    LEMMAS,
    algorithm_names,
    get_algorithm,
    run_algorithm,
)
from repro.errors import ConfigurationError
from repro.experiments.ensemble import run_ensemble
from repro.experiments.grid import (
    Campaign,
    Cell,
    GridReport,
    comma_names,
    gate,
    get_campaign,
    grid_seeds,
    register_campaign,
    str_list,
)
from repro.experiments.runner import ExperimentResult
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

    @classmethod
    def quick(cls) -> "ZooConfig":
        """``repro run E13 --scale quick``."""
        return get_campaign("zoo").build(ZooCampaign.quick_params)

    @classmethod
    def full(cls) -> "ZooConfig":
        """``repro run E13 --scale full``."""
        return get_campaign("zoo").build(ZooCampaign.full_params)


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
        extras=tuple(sorted((k, float(v)) for k, v in result.extras.items())),
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
class ZooReport(GridReport):
    """Everything the zoo grid measured, renderable and serializable."""

    summaries: List[ZooCellSummary]

    title = "Algorithm zoo: variants x adversaries"
    columns = (
        ("algorithm", "algorithm"),
        ("adversary", "adversary"),
        ("runs", "runs"),
        ("converged", "convergence_rate:.2f"),
        ("mean ||x-x*||", "mean_distance:.4f"),
        ("tau_max", "max_tau_max"),
        ("tau_avg", "mean_tau_avg:.2f"),
        ("mean steps", "mean_steps:.0f"),
        *(
            (f"lemma {lemma}", lambda s, i=i: s.certificates[i][1])
            for i, lemma in enumerate(LEMMAS)
        ),
        ("sanitizer", lambda s: s.sanitizer_findings or "clean"),
    )

    @gate
    def certificates_ok(self) -> bool:
        """No applicable lemma certificate violated anywhere."""
        return all(
            status != "violated"
            for outcome in self.outcomes
            for _lemma, status in outcome.certificates
        )

    @gate
    def sanitizer_clean(self) -> bool:
        """The race/staleness sanitizer flagged nothing anywhere."""
        return all(not o.sanitizer_findings for o in self.outcomes)

    def details(self) -> List[str]:
        lines = []
        for outcome in self.outcomes:
            for finding in outcome.sanitizer_findings:
                lines.append(
                    f"FINDING {outcome.algorithm} x {outcome.adversary} "
                    f"seed={outcome.seed}: {finding}"
                )
            for lemma, status in outcome.certificates:
                if status == "violated":
                    lines.append(
                        f"VIOLATED lemma {lemma}: {outcome.algorithm} x "
                        f"{outcome.adversary} seed={outcome.seed}"
                    )
        return lines


@register_campaign
class ZooCampaign(Campaign):
    """``repro zoo``: algorithms x adversaries x seeds, one ``zoo.cell``
    span per (algorithm, adversary) row.  ``collect_obs`` configs
    publish each fresh cell's paper metrics to the live registry and
    write them to the ``--metrics`` snapshot."""

    name = "zoo"
    help = (
        "run every registered algorithm under every adversary (lemma "
        "certificates + sanitizer per cell) and report the grid"
    )
    report_name = "zoo_report"
    cli_seeds = (2, 7000)
    seeds_per = "(algorithm, adversary) cell"
    cells_metric = ("repro_zoo_cells_total", "zoo cells finished")
    metrics_help = (
        "collect each cell's paper-aligned metrics (tau histogram, window "
        "contention, lemma indicators) and write a deterministic snapshot "
        "JSONL here (inspect with 'repro obs')"
    )
    serve_params = {
        "algorithms": (("epoch-sgd", "hogwild"), str_list),
        "adversaries": (("round-robin", "random"), str_list),
        "seeds": (2, int),
        "base_seed": (7000, int),
        "threads": (4, int),
        "iterations": (100, int),
        "sanitize": (True, bool),
    }
    #: ``repro run E13``'s presets (:meth:`ZooConfig.quick`/``full``).
    quick_params = {
        "algorithms": algorithm_names(),
        "adversaries": ZOO_ADVERSARIES,
        "seeds": 2,
        "base_seed": 7000,
        "threads": 4,
        "iterations": 150,
        "sanitize": True,
    }
    full_params = {**quick_params, "seeds": 5, "iterations": 400}
    outcome_type = ZooCellOutcome

    def build(self, params, jobs=1, collect_obs=False):
        return ZooConfig(
            algorithms=tuple(params["algorithms"]),
            adversaries=tuple(params["adversaries"]),
            seeds=grid_seeds(params),
            workload=ZooWorkload(
                num_threads=params["threads"], iterations=params["iterations"]
            ),
            sanitize=params["sanitize"],
            jobs=jobs,
            collect_obs=collect_obs,
        )

    def cells(self, config):
        for algorithm in config.algorithms:
            for adversary in config.adversaries:
                yield Cell(
                    f"{algorithm}/{adversary}",
                    functools.partial(_zoo_worker, config, algorithm, adversary),
                    (algorithm, adversary),
                )

    def cell_span(self, config, cell):
        from repro.obs.causal import trace_span

        algorithm, adversary = cell.key
        return trace_span(
            "zoo.cell",
            algorithm=algorithm,
            adversary=adversary,
            seeds=len(config.seeds),
        )

    def run_cell(self, run_one, seeds, **kwargs):
        # perfbench's zoo-grid workload and its probes time and count
        # cells by patching this module's run_ensemble: resolve it here.
        return run_ensemble(run_one, seeds, **kwargs)

    def report(self, config, outcomes):
        return ZooReport(outcomes=outcomes, summaries=summarize_zoo(outcomes))

    def telemetry(self, registry, outcome):
        if outcome.obs is not None:
            from repro.obs.paper import publish_paper_metrics

            publish_paper_metrics(registry, outcome.obs)

    def snapshot_lines(self, report):
        """One ``kind="cell"`` line per outcome carrying metrics (grid
        order) plus one ``kind="aggregate"`` roll-up."""
        from repro.obs.paper import merge_paper_metrics

        lines: List[Dict[str, Any]] = []
        cells = []
        for outcome in report.outcomes:
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

    def add_arguments(self, parser):
        parser.add_argument(
            "--algorithms", default="all",
            help="comma-separated registry names (see repro.core.algorithm), "
            "or 'all' (default): epoch-sgd, full-sgd, hogwild, leashed, "
            "locked, momentum, staleness-aware",
        )
        parser.add_argument(
            "--adversaries", default=",".join(ZOO_ADVERSARIES),
            help="comma-separated scheduler registry names "
            "(see repro.sched.registry)",
        )
        parser.add_argument(
            "--threads", type=int, default=4, metavar="N",
            help="SGD threads per run (default 4)",
        )
        parser.add_argument(
            "--iterations", type=int, default=200, metavar="T",
            help="global iteration budget per run (default 200)",
        )
        parser.add_argument(
            "--no-sanitize", action="store_true",
            help="skip the race/staleness sanitizer (faster; certificates "
            "still checked)",
        )

    def params_from_args(self, args):
        return {
            "algorithms": (
                list(algorithm_names())
                if args.algorithms == "all"
                else comma_names(args.algorithms)
            ),
            "adversaries": comma_names(args.adversaries),
            "seeds": args.seeds,
            "base_seed": args.base_seed,
            "threads": args.threads,
            "iterations": args.iterations,
            "sanitize": not args.no_sanitize,
        }


# ----------------------------------------------------------------------
# The E13 experiment wrapper
# ----------------------------------------------------------------------
def run(config: ZooConfig) -> ExperimentResult:
    """Execute E13: the full algorithm x adversary grid."""
    report = get_campaign("zoo").run(config)
    # The figure: per algorithm, mean convergence rate over adversaries
    # (xs index the adversary panel).
    xs = list(range(len(config.adversaries)))
    series: Dict[str, List[float]] = {}
    for summary in report.summaries:
        series.setdefault(summary.algorithm, []).append(
            summary.mean_distance
        )
    columns = dict(ZooReport.columns)
    picked = (
        "algorithm", "adversary", "converged", "mean ||x-x*||", "tau_max"
    )
    table = report.table(
        [(header, columns[header]) for header in picked],
        title=(
            f"E13: algorithm zoo (n={config.workload.num_threads}, "
            f"T={config.workload.iterations}, {len(config.seeds)} seeds/cell)"
        ),
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
